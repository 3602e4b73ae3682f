package core

import (
	"fmt"
	"math"

	"vsched/internal/cachemodel"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Vtop probes the vCPU topology (§3.1) by measuring cache line transfer
// latency between vCPU pairs: two prober threads ping-pong an atomic
// cache-line update; the minimum observed latency classifies the pair as SMT
// siblings, same-socket, cross-socket — or stacked, when transfers
// essentially never complete because the two vCPUs never run simultaneously.
//
// Cost is kept sub-second with the paper's three optimisations: distances
// inferable from previous results are skipped (group-representative
// probing), sockets are discovered before cores, and periodic cheap
// validation replaces full probing while the topology is stable (with
// parallel validation of disjoint pairs).
type Vtop struct {
	s       *VSched
	belief  guest.Belief
	matrix  [][]int64
	probing bool

	lastFull     sim.Duration
	lastValidate sim.Duration
	fullProbes   int
	validations  int
	failedChecks int

	// session pacing: creating prober threads, setting affinity and warming
	// them up is not free; the paper's sessions cost milliseconds each.
	setupDelay sim.Duration
	pollEvery  sim.Duration
}

func newVtop(s *VSched) *Vtop {
	n := s.vm.NumVCPUs()
	return &Vtop{
		s:          s,
		belief:     guest.DefaultBelief(n),
		matrix:     freshMatrix(n),
		setupDelay: 3 * sim.Millisecond,
		pollEvery:  20 * sim.Microsecond,
	}
}

func freshMatrix(n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = -1
			}
		}
	}
	return m
}

// Belief returns the latest probed topology.
func (t *Vtop) Belief() guest.Belief { return t.belief.Clone() }

// Matrix returns the latest probed/inferred latency matrix in nanoseconds
// (cachemodel.Infinite marks stacked pairs, -1 unknown).
func (t *Vtop) Matrix() [][]int64 {
	out := make([][]int64, len(t.matrix))
	for i := range t.matrix {
		out[i] = append([]int64(nil), t.matrix[i]...)
	}
	return out
}

// LastFullTime returns the duration of the most recent full probe.
func (t *Vtop) LastFullTime() sim.Duration { return t.lastFull }

// LastValidateTime returns the duration of the most recent validation pass.
func (t *Vtop) LastValidateTime() sim.Duration { return t.lastValidate }

// FullProbes returns how many full probes have run.
func (t *Vtop) FullProbes() int { return t.fullProbes }

func (t *Vtop) start() {
	// Bootstrap with a full probe, then validate periodically.
	t.FullProbe(func() { t.scheduleNext() })
}

func (t *Vtop) scheduleNext() {
	t.s.eng.After(t.s.params.VtopEvery, func() {
		if t.probing {
			t.scheduleNext()
			return
		}
		t.Validate(func(ok bool) {
			if ok {
				t.scheduleNext()
				return
			}
			t.failedChecks++
			t.FullProbe(func() { t.scheduleNext() })
		})
	})
}

// --- probing session ---

type sessionResult struct {
	lat int64
	ok  bool
}

type session struct {
	vt        *Vtop
	a, b      *guest.VCPU
	ta, tb    *guest.Task
	target    float64
	timeout   float64
	attempts  float64
	transfers float64
	minBase   int64
	lastPoll  sim.Time
	deadline  sim.Time
	finished  bool
	done      func(sessionResult)
	// pollFn is poll, bound once per session: a session polls every 20 µs.
	pollFn func()
}

// probePair measures the distance between vCPUs ai and bi. extended
// multiplies the attempt timeout (the paper's anti-misjudgment measure for
// suspected stacking).
func (t *Vtop) probePair(ai, bi int, extended bool, done func(sessionResult)) {
	s := t.s
	sess := &session{
		vt:      t,
		a:       s.vm.VCPU(ai),
		b:       s.vm.VCPU(bi),
		target:  float64(s.params.VtopTargetTransfers),
		timeout: float64(s.params.VtopTimeoutAttempts),
		minBase: cachemodel.Infinite,
		done:    done,
	}
	sess.pollFn = sess.poll
	if extended {
		// The extended timeout must outlast plausible inactive periods
		// (tens of ms) so rarely-overlapping vCPUs are not misjudged as
		// stacked; this is what makes stacking confirmation the dominant
		// cost of probing (Table 2's rcvm-validate).
		sess.timeout *= 128
	}
	s.eng.After(t.setupDelay, func() {
		// Prober threads run at normal priority: high enough to make steady
		// progress against best-effort noise, without displacing
		// latency-critical work for the length of a session.
		mk := func(v *guest.VCPU, label string) *guest.Task {
			chunk := s.params.NominalSpeed * float64(20*sim.Microsecond)
			return s.vm.Spawn(
				fmt.Sprintf("vtop/%s%d-%d", label, ai, bi),
				func(sim.Time) guest.Segment {
					if sess.finished {
						return guest.Exit()
					}
					return guest.Compute(chunk)
				},
				guest.WithAffinity(v.ID()),
				guest.WithWeight(guest.WeightNormal),
			)
		}
		sess.ta = mk(sess.a, "a")
		sess.tb = mk(sess.b, "b")
		now := s.eng.Now()
		sess.lastPoll = now
		sess.deadline = now.Add(500 * sim.Millisecond)
		s.eng.After(t.pollEvery, sess.pollFn)
	})
}

// executing reports whether the prober task is genuinely running on silicon
// right now — the physical condition for its transfer attempts to progress.
func sessExecuting(v *guest.VCPU, tk *guest.Task) bool {
	return v.Curr() == tk && v.Entity().State() == host.Running
}

func (sess *session) poll() {
	if sess.finished {
		return
	}
	s := sess.vt.s
	now := s.eng.Now()
	dt := now.Sub(sess.lastPoll)
	sess.lastPoll = now

	aOn := sessExecuting(sess.a, sess.ta)
	bOn := sessExecuting(sess.b, sess.tb)
	model := s.model
	if aOn && bOn {
		rel := s.vm.Host().Relation(sess.a.Entity().Thread().ID(), sess.b.Entity().Thread().ID())
		cost := model.RoundTripCost(rel)
		if cost != cachemodel.Infinite {
			n := float64(dt) / float64(cost)
			sess.transfers += n
			sess.attempts += n
			if base := model.Base(rel); base < sess.minBase {
				sess.minBase = base
			}
		}
	} else if aOn || bOn {
		// One side spins alone: attempts burn without transfers.
		sess.attempts += float64(dt) / float64(model.AttemptCost)
	}

	switch {
	case sess.transfers >= sess.target:
		sess.finish(sessionResult{lat: sess.measuredLatency(), ok: true})
	case sess.attempts >= sess.timeout:
		if sess.transfers < sess.target/10 {
			// Too few transfers: the pair behaves stacked.
			sess.finish(sessionResult{lat: cachemodel.Infinite, ok: true})
		} else {
			sess.finish(sessionResult{lat: sess.measuredLatency(), ok: true})
		}
	case now >= sess.deadline:
		sess.finish(sessionResult{ok: false})
	default:
		s.eng.After(sess.vt.pollEvery, sess.pollFn)
	}
}

// measuredLatency converts the session's observations into the reported
// minimum transfer latency: with n samples of additive noise, the minimum
// approaches the base latency from above.
func (sess *session) measuredLatency() int64 {
	if sess.minBase == cachemodel.Infinite {
		return cachemodel.Infinite
	}
	model := sess.vt.s.model
	n := sess.transfers
	if n < 1 {
		n = 1
	}
	residual := model.JitterFrac * float64(sess.minBase) * 5 / math.Sqrt(n)
	noise := sess.vt.s.eng.Rand().ExpFloat64() * residual
	return sess.minBase + int64(noise)
}

func (sess *session) finish(res sessionResult) {
	sess.finished = true
	sess.done(res)
}

// probeClassify probes a pair and classifies it, re-probing with an
// extended timeout before accepting a "stacked" verdict (vCPUs that merely
// rarely overlap must not be misjudged as stacked).
func (t *Vtop) probeClassify(ai, bi int, done func(rel cachemodel.Relation, lat int64, ok bool)) {
	t.probePair(ai, bi, false, func(res sessionResult) {
		if !res.ok {
			done(cachemodel.Cross, -1, false)
			return
		}
		if t.s.model.Classify(res.lat) != cachemodel.Self {
			t.record(ai, bi, res.lat)
			done(t.s.model.Classify(res.lat), res.lat, true)
			return
		}
		// Suspected stacking: confirm with extended effort.
		t.probePair(ai, bi, true, func(res2 sessionResult) {
			if !res2.ok {
				done(cachemodel.Cross, -1, false)
				return
			}
			t.record(ai, bi, res2.lat)
			done(t.s.model.Classify(res2.lat), res2.lat, true)
		})
	})
}

func (t *Vtop) record(ai, bi int, lat int64) {
	t.matrix[ai][bi] = lat
	t.matrix[bi][ai] = lat
}

// --- full probe: socket-first discovery with inference ---

// FullProbe discovers the whole topology and publishes it. done fires when
// the new belief is live.
func (t *Vtop) FullProbe(done func()) {
	if t.probing {
		if done != nil {
			done()
		}
		return
	}
	t.probing = true
	t.fullProbes++
	start := t.s.eng.Now()
	n := t.s.vm.NumVCPUs()
	t.matrix = freshMatrix(n)

	stackOf := make([]int, n)
	coreOf := make([]int, n)
	socketOf := make([]int, n)
	for i := range stackOf {
		stackOf[i], coreOf[i], socketOf[i] = i, i, i
	}
	// socketGroups[g] lists members; the first member is the
	// representative.
	socketGroups := [][]int{{0}}
	socketOf[0] = 0

	finishAll := func() {
		t.inferMatrix(guest.Belief{CoreOf: coreOf, SocketOf: socketOf, StackOf: stackOf})
		t.belief = guest.Belief{CoreOf: coreOf, SocketOf: socketOf, StackOf: stackOf}
		t.s.vm.SetTopology(t.belief)
		if t.s.features.RWC {
			t.s.rwc.onTopologyUpdate()
		}
		t.lastFull = t.s.eng.Now().Sub(start)
		t.s.tracer().Emit(t.s.eng.Now(), vtrace.KindVtop, "vtop",
			0, int64(t.lastFull), 1)
		t.probing = false
		if done != nil {
			done()
		}
	}

	var nextJ func(j int)

	// stackDiscovery resolves which hardware thread of an already-matched
	// core group j sits on: an SMT result against the group's
	// representative proves j shares the core but NOT the thread, so j is
	// probed against one representative of each other stack group in the
	// core (a Self result means stacked). This is the one relation the
	// paper's inference cannot skip.
	stackDiscovery := func(j, matchedRep int, after func()) {
		var stackReps []int
		seen := map[int]bool{stackOf[matchedRep]: true, stackOf[j]: true}
		for m := 0; m < j; m++ {
			if coreOf[m] != coreOf[j] || m == j || seen[stackOf[m]] {
				continue
			}
			seen[stackOf[m]] = true
			stackReps = append(stackReps, m)
		}
		var try func(k int)
		try = func(k int) {
			if k >= len(stackReps) {
				after() // j keeps its own stack group
				return
			}
			t.probeClassify(j, stackReps[k], func(rel cachemodel.Relation, _ int64, ok bool) {
				if ok && rel == cachemodel.Self {
					stackOf[j] = stackOf[stackReps[k]]
					after()
					return
				}
				try(k + 1)
			})
		}
		try(0)
	}

	// coreDiscovery places j within socket group g by probing against one
	// representative of each distinct core group in g.
	coreDiscovery := func(j, g int, after func()) {
		// Distinct core representatives among current members (excluding
		// cores already ruled out — the socket rep's core is ruled out by
		// the Socket-classified probe that got us here).
		var coreReps []int
		seen := map[int]bool{}
		rep := socketGroups[g][0]
		seen[coreOf[rep]] = true // ruled out: j vs rep was Socket-distance
		for _, m := range socketGroups[g] {
			if m == j || seen[coreOf[m]] {
				continue
			}
			seen[coreOf[m]] = true
			coreReps = append(coreReps, m)
		}
		var try func(k int)
		try = func(k int) {
			if k >= len(coreReps) {
				after() // j keeps its own core group
				return
			}
			t.probeClassify(j, coreReps[k], func(rel cachemodel.Relation, _ int64, ok bool) {
				if !ok {
					try(k + 1)
					return
				}
				switch rel {
				case cachemodel.Self:
					stackOf[j] = stackOf[coreReps[k]]
					coreOf[j] = coreOf[coreReps[k]]
					after()
				case cachemodel.SMT:
					coreOf[j] = coreOf[coreReps[k]]
					stackDiscovery(j, coreReps[k], after)
				default:
					try(k + 1)
				}
			})
		}
		try(0)
	}

	nextJ = func(j int) {
		if j >= n {
			finishAll()
			return
		}
		var tryRep func(k int)
		tryRep = func(k int) {
			if k >= len(socketGroups) {
				// New socket.
				socketOf[j] = j
				socketGroups = append(socketGroups, []int{j})
				nextJ(j + 1)
				return
			}
			rep := socketGroups[k][0]
			t.probeClassify(j, rep, func(rel cachemodel.Relation, _ int64, ok bool) {
				if !ok {
					tryRep(k + 1)
					return
				}
				switch rel {
				case cachemodel.Self:
					stackOf[j] = stackOf[rep]
					coreOf[j] = coreOf[rep]
					socketOf[j] = socketOf[rep]
					socketGroups[k] = append(socketGroups[k], j)
					nextJ(j + 1)
				case cachemodel.SMT:
					coreOf[j] = coreOf[rep]
					socketOf[j] = socketOf[rep]
					socketGroups[k] = append(socketGroups[k], j)
					stackDiscovery(j, rep, func() { nextJ(j + 1) })
				case cachemodel.Socket:
					socketOf[j] = socketOf[rep]
					socketGroups[k] = append(socketGroups[k], j)
					coreDiscovery(j, k, func() { nextJ(j + 1) })
				default: // Cross
					tryRep(k + 1)
				}
			})
		}
		tryRep(0)
	}
	nextJ(1)
}

// inferMatrix fills unprobed pairs from the discovered belief (the paper's
// "skip pairs whose distances can be inferred").
func (t *Vtop) inferMatrix(b guest.Belief) {
	n := len(b.CoreOf)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || t.matrix[i][j] != -1 {
				continue
			}
			var rel cachemodel.Relation
			switch {
			case b.SameStack(i, j):
				rel = cachemodel.Self
			case b.SameCore(i, j):
				rel = cachemodel.SMT
			case b.SameSocket(i, j):
				rel = cachemodel.Socket
			default:
				rel = cachemodel.Cross
			}
			base := t.s.model.Base(rel)
			t.matrix[i][j] = base
		}
	}
}

// --- validation ---

type check struct {
	a, b int
	want cachemodel.Relation
}

// Validate cheaply confirms the current belief: one pair per stack group,
// one SMT pair per multi-member core group, one inter-core pair and the
// socket-representative chain. Disjoint checks run in parallel. done(false)
// means a mismatch was found and a full probe is required.
func (t *Vtop) Validate(done func(ok bool)) {
	if t.probing {
		done(true)
		return
	}
	t.probing = true
	t.validations++
	start := t.s.eng.Now()
	checks := t.buildChecks()
	if len(checks) == 0 {
		t.lastValidate = t.s.eng.Now().Sub(start)
		t.s.tracer().Emit(t.s.eng.Now(), vtrace.KindVtop, "vtop",
			1, int64(t.lastValidate), 1)
		t.probing = false
		done(true)
		return
	}
	waves := planWaves(checks)
	allOK := true
	var runWave func(w int)
	runWave = func(w int) {
		if w >= len(waves) {
			t.lastValidate = t.s.eng.Now().Sub(start)
			confirmed := int64(0)
			if allOK {
				confirmed = 1
			}
			t.s.tracer().Emit(t.s.eng.Now(), vtrace.KindVtop, "vtop",
				1, int64(t.lastValidate), confirmed)
			t.probing = false
			done(allOK)
			return
		}
		pending := len(waves[w])
		for _, c := range waves[w] {
			c := c
			t.probeClassify(c.a, c.b, func(rel cachemodel.Relation, _ int64, ok bool) {
				if ok && rel != c.want {
					allOK = false
				}
				pending--
				if pending == 0 {
					runWave(w + 1)
				}
			})
		}
	}
	runWave(0)
}

// buildChecks derives the minimal pair set that confirms the belief.
func (t *Vtop) buildChecks() []check {
	b := t.belief
	var checks []check
	// Stacking groups: confirm one pair each.
	for _, g := range b.StackGroups() {
		checks = append(checks, check{g[0], g[1], cachemodel.Self})
	}
	// Core groups with two members on distinct stacks: confirm SMT.
	coreMembers := map[int][]int{}
	for i, c := range b.CoreOf {
		coreMembers[c] = append(coreMembers[c], i)
	}
	for i := range b.CoreOf {
		ms := coreMembers[b.CoreOf[i]]
		if len(ms) < 2 || ms[0] != i {
			continue
		}
		for _, m := range ms[1:] {
			if !b.SameStack(ms[0], m) {
				checks = append(checks, check{ms[0], m, cachemodel.SMT})
				break
			}
		}
	}
	// Within each socket: one pair across two core groups.
	for _, socket := range b.Sockets() {
		var first, second = -1, -1
		for _, m := range socket {
			if first == -1 {
				first = m
			} else if b.CoreOf[m] != b.CoreOf[first] {
				second = m
				break
			}
		}
		if second != -1 {
			checks = append(checks, check{first, second, cachemodel.Socket})
		}
	}
	// Socket representatives: chain of Cross checks.
	sockets := b.Sockets()
	for i := 1; i < len(sockets); i++ {
		checks = append(checks, check{sockets[i-1][0], sockets[i][0], cachemodel.Cross})
	}
	return checks
}

// planWaves groups checks into waves of vCPU-disjoint pairs so each wave's
// sessions can run in parallel without interfering.
func planWaves(checks []check) [][]check {
	var waves [][]check
	remaining := append([]check(nil), checks...)
	for len(remaining) > 0 {
		used := map[int]bool{}
		var wave, rest []check
		for _, c := range remaining {
			if used[c.a] || used[c.b] {
				rest = append(rest, c)
				continue
			}
			used[c.a], used[c.b] = true, true
			wave = append(wave, c)
		}
		waves = append(waves, wave)
		remaining = rest
	}
	return waves
}

// ProbeAllPairs measures every pair exhaustively (used by the Fig. 10b
// experiment to render the full matrix); it does not change the belief.
func (t *Vtop) ProbeAllPairs(done func(matrix [][]int64, took sim.Duration)) {
	if t.probing {
		// A periodic validation or full probe is in flight; retry shortly.
		t.s.eng.After(100*sim.Millisecond, func() { t.ProbeAllPairs(done) })
		return
	}
	t.probing = true
	start := t.s.eng.Now()
	n := t.s.vm.NumVCPUs()
	saved := t.matrix
	t.matrix = freshMatrix(n)
	type pair struct{ a, b int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	var run func(k int)
	run = func(k int) {
		if k >= len(pairs) {
			m := t.matrix
			t.matrix = saved
			t.probing = false
			done(m, t.s.eng.Now().Sub(start))
			return
		}
		t.probeClassify(pairs[k].a, pairs[k].b, func(cachemodel.Relation, int64, bool) {
			run(k + 1)
		})
	}
	run(0)
}
