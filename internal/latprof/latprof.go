// Package latprof is the cross-layer latency attribution profiler: it
// consumes a vtrace event stream (live through a tracer observer, or
// post-hoc from the ring) and reconstructs, for every guest task, *why* its
// wall time went where. Each task span — wakeup to block/exit — is
// decomposed into a conserved breakdown:
//
//	run            the task really executed at full effective speed
//	runnable-wait  queued behind sibling tasks on a host-running vCPU
//	steal-wait     the task's vCPU was descheduled by the hypervisor,
//	               attributed to the specific contender entity holding the
//	               hardware thread at the time
//	throttle-wait  the vCPU was barred by CPU bandwidth quota
//	migration      working-set transfer cost charged by task migrations
//	smt-slowdown   run time lost because the effective speed was below
//	               nominal (SMT sibling activity, LLC pressure)
//
// The invariant is exact conservation in virtual nanoseconds: the six
// components of a span always sum to its wall time. Every interval between
// two consecutive events lands in exactly one component, and sub-interval
// splits (run vs smt-slowdown, run vs migration) derive one side by
// subtraction, so no rounding can leak a nanosecond.
//
// Approximations, documented rather than hidden: a Runnable entity
// repinned across hardware threads emits no state transition, so
// steal-blame can lag one event behind; migration cost is modelled as the
// working-set debt carved out of the task's subsequent run time, matching
// how the guest charges commDebt; wakeup communication cost (waker pulling
// the wakee's working set) is deliberately counted as run, not migration.
//
// Host fold: host entity events are host-wide — every VM on a host needs
// each thread's Running occupant for blame — so they are folded once per
// host into a HostFold view that all profilers of VMs born there share, and
// an event reaches only the profilers with a stake in it (the vCPU's owner,
// and those with an open span on a vCPU homed on a thread it touches). Open
// spans are indexed by vCPU, so settling a thread or a vCPU walks only the
// spans on it. Each view entry is stamped with the sequence number of the
// host event that last wrote it, and a profiler counts an entry as seen only
// if it was written after the profiler attached; that rule makes a shared
// fold reconstruct exactly what a private one fed from the attach point on
// would. New gives a profiler a private fold, so standalone and fleet
// attribution take one code path.
//
// Determinism: the profiler is a pure fold over the event stream. Feeding
// the same events yields byte-identical reports; all aggregation orders are
// explicit (task id, name, or span order), never map order.
//
// Memory: a warm span allocates nothing from wakeup to close. Open-span
// state is recycled and steal blame accumulates in a small slice. A closed
// span is stored as one fixed-size, pointer-free record, its sorted steal
// blame as pointer-free entries beside it; task and entity names are
// interned, once per task and once per host entity. Both stores grow in
// chunks that are never copied. Finish does not copy either: a profile
// shares the profiler's stores, Profile.Len counts its spans and
// Profile.Span(i) rebuilds span i. Spans closed after a Finish never show
// up in, or change, a profile it returned.
package latprof

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Config selects which VM the profiler reconstructs and how to judge speed.
type Config struct {
	// VM is the VM name; entity events for "<VM>/vcpuN" and guest events
	// are attributed to it. The guest event stream fed to Observe must be
	// this VM's (host entity events may cover the whole host).
	VM string
	// NominalSpeed is the uncontended execution speed in cycles/ns (the
	// host's base speed). Run time at a lower effective speed splits into
	// run + smt-slowdown against this reference, and migration cycle costs
	// convert to nanoseconds through it. <= 0 disables both refinements:
	// all running time counts as run and migration cost stays zero.
	NominalSpeed float64
}

// Cause indexes the components of a Breakdown.
type Cause int

const (
	Run Cause = iota
	RunnableWait
	StealWait
	ThrottleWait
	Migration
	SMTSlowdown
	numCauses
)

func (c Cause) String() string {
	switch c {
	case Run:
		return "run"
	case RunnableWait:
		return "runnable-wait"
	case StealWait:
		return "steal-wait"
	case ThrottleWait:
		return "throttle-wait"
	case Migration:
		return "migration"
	case SMTSlowdown:
		return "smt-slowdown"
	}
	return "invalid"
}

// Key returns the snake_case metric key of the cause.
func (c Cause) Key() string { return strings.ReplaceAll(c.String(), "-", "_") }

// Causes returns all causes in canonical report order.
func Causes() []Cause {
	return []Cause{Run, RunnableWait, StealWait, ThrottleWait, Migration, SMTSlowdown}
}

// Breakdown is a conserved decomposition of wall time by cause.
type Breakdown struct {
	NS [numCauses]sim.Duration
}

// Get returns the component for a cause.
func (b *Breakdown) Get(c Cause) sim.Duration { return b.NS[c] }

// Total returns the sum of all components.
func (b *Breakdown) Total() sim.Duration {
	var t sim.Duration
	for _, d := range b.NS {
		t += d
	}
	return t
}

// Add accumulates o into b.
func (b *Breakdown) Add(o *Breakdown) {
	for i := range b.NS {
		b.NS[i] += o.NS[i]
	}
}

// Share returns the cause's fraction of the total (0 when empty).
func (b *Breakdown) Share(c Cause) float64 {
	t := b.Total()
	if t <= 0 {
		return 0
	}
	return float64(b.NS[c]) / float64(t)
}

// Blame names a host entity and how much steal-wait it inflicted.
type Blame struct {
	Entity string
	Wait   sim.Duration
}

// Span is one reconstructed task activation: wakeup to block/exit.
type Span struct {
	Task   string
	TaskID int64
	Start  sim.Time
	End    sim.Time
	Breakdown
	// StealBy attributes StealWait to the host entities that held the
	// hardware thread, largest first ("(unknown)" when the holder was not
	// visible in the stream).
	StealBy []Blame
	// WakerID is the task id whose wakeup opened this span, -1 when the
	// wakeup was external (spawn, timer, IRQ).
	WakerID int64
	// Migrations counts cross-vCPU moves during the span.
	Migrations int
}

// Wall returns the span's wall time.
func (s *Span) Wall() sim.Duration { return s.End.Sub(s.Start) }

// vcpuState caches the host-side view of one vCPU of the profiled VM. The
// zero value is a vCPU no event has described yet.
type vcpuState struct {
	state      host.EntityState
	known      bool      // saw at least one entity event
	thread     *hwThread // last traced home thread; nil before the first entity event
	speedMicro int64     // last traced effective speed; 0 = assume nominal
	// open heads the list of the nopen open spans whose task sits on this
	// vCPU; thread counts them among its stakes.
	open  *taskState
	nopen int
}

// taskState is an open span under reconstruction.
type taskState struct {
	id      int64
	vcpu    int
	running bool
	since   sim.Time
	task    string
	// rec is the span's record; its end, task and blame fields are set at
	// close.
	rec spanRec
	// stealBy accumulates the span's steal-wait per blamed entity, in
	// first-blame order. A span blames a handful of entities at most, so a
	// linear scan beats a map, and the slice is reused across spans.
	stealBy []blameRec
	// migDebt is traced migration cost (ns at nominal speed) not yet
	// carved out of subsequent run time.
	migDebt sim.Duration
	// truncated marks a span first seen mid-stream (its wakeup predates
	// the tap or was dropped); it is reconstructed but excluded from
	// aggregates.
	truncated bool
	// slot is the task's index in Profiler.open.
	slot int
	// prev and next link the open spans on the same vCPU (vcpuState.open)
	// while vcpu is a valid index (listed).
	prev, next *taskState
}

// Profiler folds a vtrace event stream into attribution spans. Feed events
// with Observe (hook it to a tracer with vtrace.NewObserver or SetObserver),
// then call Finish. The zero Profiler is not usable; call New, or Attach on
// a HostFold shared with other VMs' profilers.
type Profiler struct {
	cfg      Config
	vmPrefix string

	// fold is the host view this profiler reads steal blame and entity homes
	// from; attachSeq is the fold's sequence number when the profiler
	// attached. A view entry counts as seen only if a later event wrote it.
	fold      *HostFold
	attachSeq uint64
	// scan, when set, replaces the open-span index in flushVCPU with a
	// reference implementation (HostFold.scan).
	scan flusher

	// tasks indexes the open spans by task id — a guest numbers its tasks
	// 1, 2, 3, ... — and far holds those of ids outside [0, maxTaskID).
	tasks []*taskState
	far   map[int64]*taskState
	// open holds the same tasks densely (swap-delete) for Finish. Settling
	// a thread or vCPU walks only the spans on it: each vCPU lists its own
	// (vcpuState.open). Each flush touches only its own span, so the walk
	// order cannot change a result.
	open  []*taskState
	vcpus []vcpuState

	// spans holds the closed spans in close order, blame their sorted
	// steal blame.
	spans     chunked[spanRec]
	blame     chunked[blameRec]
	truncated int
	lastAt    sim.Time

	// names interns the closed spans' task names, nameIdx by name. named
	// caches, per task id in [0, maxTaskID), 1 + the index of the name its
	// last span closed under, so a task's spans hash its name once.
	names   []string
	nameIdx map[string]uint32
	named   []uint32

	// free holds closed taskStates for reuse.
	free []*taskState
}

// New returns a profiler for one VM with a private host view: every host
// entity event it observes is folded into that view first.
func New(cfg Config) *Profiler {
	return NewHostFold().Attach(cfg)
}

// Observe folds one event. Events must arrive in non-decreasing time order
// (the order every tracer emits them in). Host entity events go through the
// profiler's fold; a profiler attached to a shared HostFold must receive
// them from the fold alone, so feed such a profiler only its own VM's guest
// events.
func (p *Profiler) Observe(ev vtrace.Event) {
	if ev.At > p.lastAt {
		p.lastAt = ev.At
	}
	switch ev.Kind {
	case vtrace.KindEntityState:
		p.fold.Observe(ev)
	case vtrace.KindVCPUSpeed:
		if ev.Subject == p.cfg.VM {
			p.speedEvent(ev)
		}
	case vtrace.KindTaskWakeup:
		p.wakeup(ev)
	case vtrace.KindTaskOn:
		p.taskOn(ev)
	case vtrace.KindTaskOff:
		p.taskOff(ev)
	case vtrace.KindTaskMigrate:
		p.migrate(ev)
	case vtrace.KindMigCost:
		p.migCost(ev)
	}
}

// maxVCPUs bounds the vCPU index parsed from an entity name or a speed
// event, so a malformed trace cannot size the dense vCPU table.
const maxVCPUs = 1 << 16

// vcpuIndex parses "<VM>/vcpuN" subjects, N plain decimal digits; ok is
// false for entities of other VMs and synthetic contenders.
func (p *Profiler) vcpuIndex(subject string) (int, bool) {
	if !strings.HasPrefix(subject, p.vmPrefix) {
		return 0, false
	}
	digits := subject[len(p.vmPrefix):]
	if digits == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n >= maxVCPUs {
			return 0, false
		}
	}
	return n, true
}

// vcpu returns vCPU i's state, growing the table as needed.
func (p *Profiler) vcpu(i int) *vcpuState {
	for len(p.vcpus) <= i {
		p.vcpus = append(p.vcpus, vcpuState{})
	}
	return &p.vcpus[i]
}

// homeOf is the hardware thread vCPU i was last traced on; nil when unknown.
func (p *Profiler) homeOf(i int) *hwThread {
	if i < 0 || i >= len(p.vcpus) {
		return nil
	}
	return p.vcpus[i].thread
}

// vcpuEntity applies one entity event of the profiler's own vCPU idx, homed
// on t, after the fold settled every other stake in the event.
func (p *Profiler) vcpuEntity(at sim.Time, idx int, to host.EntityState, t *hwThread) {
	p.flushVCPU(at, idx)
	vs := p.vcpu(idx)
	vs.state = to
	vs.known = true
	if vs.thread != t {
		if vs.nopen > 0 {
			if vs.thread != nil {
				vs.thread.stake(p, -vs.nopen)
			}
			t.stake(p, vs.nopen)
		}
		vs.thread = t
	}
}

func (p *Profiler) speedEvent(ev vtrace.Event) {
	idx := int(ev.A0)
	if idx < 0 || idx >= maxVCPUs {
		return
	}
	p.flushVCPU(ev.At, idx)
	p.vcpu(idx).speedMicro = ev.A1
}

func (p *Profiler) wakeup(ev vtrace.Event) {
	id := ev.A0
	if ts := p.task(id); ts != nil {
		// A wakeup for a task we think is already awake means the stream
		// lost the close of the previous span (ring wrap). Discard it as
		// truncated and start clean.
		p.flushTask(ts, ev.At)
		p.truncated++
		p.drop(ts)
		p.release(ts)
	}
	ts := p.alloc()
	ts.id = id
	ts.vcpu = int(ev.A1)
	ts.since = ev.At
	ts.task = ev.Subject
	ts.rec = spanRec{taskID: id, start: ev.At, wakerID: ev.A2}
	p.add(ts)
}

// alloc returns a zeroed taskState, reusing a released one when it can;
// release hands a closed one back.
func (p *Profiler) alloc() *taskState {
	n := len(p.free)
	if n == 0 {
		return &taskState{}
	}
	ts := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return ts
}

func (p *Profiler) release(ts *taskState) {
	*ts = taskState{stealBy: ts.stealBy[:0]}
	p.free = append(p.free, ts)
}

// add opens ts on vCPU ts.vcpu; drop forgets it.
func (p *Profiler) add(ts *taskState) {
	ts.slot = len(p.open)
	p.open = append(p.open, ts)
	p.setTask(ts.id, ts)
	p.list(ts)
}

func (p *Profiler) drop(ts *taskState) {
	p.unlist(ts)
	last := p.open[len(p.open)-1]
	p.open[ts.slot] = last
	last.slot = ts.slot
	p.open[len(p.open)-1] = nil
	p.open = p.open[:len(p.open)-1]
	p.setTask(ts.id, nil)
}

// maxTaskID bounds the task ids the dense table holds, so a malformed
// stream cannot size it.
const maxTaskID = 1 << 16

// task returns the open span of task id; nil when there is none.
func (p *Profiler) task(id int64) *taskState {
	if id >= 0 && id < int64(len(p.tasks)) {
		return p.tasks[id]
	}
	if id >= 0 && id < maxTaskID {
		return nil
	}
	return p.far[id]
}

// setTask files ts as task id's open span; nil forgets it.
func (p *Profiler) setTask(id int64, ts *taskState) {
	if id < 0 || id >= maxTaskID {
		if ts == nil {
			delete(p.far, id)
			return
		}
		if p.far == nil {
			p.far = map[int64]*taskState{}
		}
		p.far[id] = ts
		return
	}
	for int64(len(p.tasks)) <= id {
		p.tasks = append(p.tasks, nil)
	}
	p.tasks[id] = ts
}

// listed reports whether a span on vCPU idx sits on idx's list. Only a span
// on an index a flush can name is: no flush names a negative or oversized
// one (a malformed stream), so only Finish settles it.
func listed(idx int) bool { return idx >= 0 && idx < maxVCPUs }

// list links open span ts onto its vCPU's list, growing the vCPU table
// (a zero vcpuState reads the same as an index past the table's end).
func (p *Profiler) list(ts *taskState) {
	if !listed(ts.vcpu) {
		return
	}
	vs := p.vcpu(ts.vcpu)
	ts.prev, ts.next = nil, vs.open
	if vs.open != nil {
		vs.open.prev = ts
	}
	vs.open = ts
	vs.nopen++
	if vs.thread != nil {
		vs.thread.stake(p, 1)
	}
}

func (p *Profiler) unlist(ts *taskState) {
	if !listed(ts.vcpu) {
		return
	}
	vs := &p.vcpus[ts.vcpu]
	if ts.prev != nil {
		ts.prev.next = ts.next
	} else {
		vs.open = ts.next
	}
	if ts.next != nil {
		ts.next.prev = ts.prev
	}
	ts.prev, ts.next = nil, nil
	vs.nopen--
	if vs.thread != nil {
		vs.thread.stake(p, -1)
	}
}

// move puts open span ts on vCPU idx.
func (p *Profiler) move(ts *taskState, idx int) {
	if ts.vcpu == idx {
		return
	}
	p.unlist(ts)
	ts.vcpu = idx
	p.list(ts)
}

func (p *Profiler) taskOn(ev vtrace.Event) {
	id := ev.A1
	ts := p.task(id)
	if ts == nil {
		// First sight mid-run: reconstruct from here but mark truncated.
		ts = p.alloc()
		ts.id = id
		ts.since = ev.At
		ts.task = ev.Subject
		ts.rec = spanRec{taskID: id, start: ev.At, wakerID: -1}
		ts.truncated = true
		p.add(ts)
	}
	p.flushTask(ts, ev.At)
	ts.running = true
	p.move(ts, int(ev.A0))
}

func (p *Profiler) taskOff(ev vtrace.Event) {
	id := ev.A1
	ts := p.task(id)
	if ts == nil {
		return // open predates the tap; nothing to close
	}
	p.flushTask(ts, ev.At)
	ts.running = false
	p.move(ts, int(ev.A0))
	if ev.A2 == 1 {
		return // preempted or migrating: span continues queued
	}
	p.closeSpan(ts, ev.At)
}

func (p *Profiler) migrate(ev vtrace.Event) {
	ts := p.task(ev.A0)
	if ts == nil {
		return
	}
	p.flushTask(ts, ev.At)
	p.move(ts, int(ev.A2))
	if ts.rec.migrations < math.MaxUint32 {
		ts.rec.migrations++
	}
}

func (p *Profiler) migCost(ev vtrace.Event) {
	ts := p.task(ev.A0)
	if ts == nil || p.cfg.NominalSpeed <= 0 {
		return
	}
	ts.migDebt += sim.Duration(float64(ev.A1) / p.cfg.NominalSpeed)
}

func (p *Profiler) closeSpan(ts *taskState, at sim.Time) {
	p.drop(ts)
	if ts.truncated {
		p.truncated++
	} else {
		r := &ts.rec
		r.end = at
		r.task = p.taskName(ts.id, ts.task)
		r.blame, r.nblame = uint32(p.blame.n), uint32(len(ts.stealBy))
		sortBlame(ts.stealBy, p.fold.names)
		for _, b := range ts.stealBy {
			p.blame.push(b)
		}
		p.spans.push(*r)
	}
	p.release(ts)
}

// taskName interns the name of task id's closing span. A task's spans
// carry its name each time, so the last index per task id is cached and
// the name hashed only when the cache misses.
func (p *Profiler) taskName(id int64, name string) uint32 {
	dense := id >= 0 && id < maxTaskID
	if dense && id < int64(len(p.named)) {
		if k := p.named[id]; k > 0 && p.names[k-1] == name {
			return k - 1
		}
	}
	k, ok := p.nameIdx[name]
	if !ok {
		if p.nameIdx == nil {
			p.nameIdx = map[string]uint32{}
		}
		k = uint32(len(p.names))
		p.names = append(p.names, name)
		p.nameIdx[name] = k
	}
	if dense {
		for int64(len(p.named)) <= id {
			p.named = append(p.named, 0)
		}
		p.named[id] = k + 1
	}
	return k
}

// sortBlame orders blame by wait (largest first), then entity name, as
// StealBy and TopBlame list it; names are the names b's indexes name.
func sortBlame(b []blameRec, names []string) {
	if len(b) < 2 {
		return
	}
	slices.SortFunc(b, func(x, y blameRec) int {
		if x.wait != y.wait {
			return cmp.Compare(y.wait, x.wait)
		}
		return strings.Compare(names[x.ent], names[y.ent])
	})
}

// flushThread settles every open span whose vCPU sits on hardware thread t
// (non-nil): it walks the lists of the profiler's vCPUs homed there.
func (p *Profiler) flushThread(at sim.Time, t *hwThread) {
	for i := range p.vcpus {
		if vs := &p.vcpus[i]; vs.thread == t {
			for ts := vs.open; ts != nil; ts = ts.next {
				p.flushTask(ts, at)
			}
		}
	}
}

// flushVCPU settles every open span currently homed on vCPU idx.
func (p *Profiler) flushVCPU(at sim.Time, idx int) {
	if p.scan != nil {
		p.scan.flushVCPU(p, at, idx)
		return
	}
	if idx < 0 || idx >= len(p.vcpus) {
		return
	}
	for ts := p.vcpus[idx].open; ts != nil; ts = ts.next {
		p.flushTask(ts, at)
	}
}

// flushTask charges the interval since the task's last settlement to exactly
// one cause (with exact-by-subtraction sub-splits) under the *current*
// cached vCPU state, then restarts its clock. flushTask is idempotent at a
// given timestamp: a second call charges zero.
func (p *Profiler) flushTask(ts *taskState, at sim.Time) {
	el := at.Sub(ts.since)
	ts.since = at
	if el <= 0 {
		return
	}
	var vs vcpuState
	if ts.vcpu >= 0 && ts.vcpu < len(p.vcpus) {
		vs = p.vcpus[ts.vcpu]
	}
	state := host.Running // optimistic default before any entity event
	if vs.known {
		state = vs.state
	}
	speedMicro := vs.speedMicro

	if ts.running {
		switch state {
		case host.Running:
			// Split run vs smt-slowdown against nominal speed; derive run
			// by subtraction so the pair sums to el exactly. Then carve
			// pending migration debt out of the run part.
			var slow sim.Duration
			if p.cfg.NominalSpeed > 0 && speedMicro > 0 {
				ratio := float64(speedMicro) / (p.cfg.NominalSpeed * 1e6)
				if ratio < 1 {
					slow = sim.Duration(float64(el) * (1 - ratio))
					if slow > el {
						slow = el
					}
				}
			}
			run := el - slow
			take := ts.migDebt
			if take > run {
				take = run
			}
			ts.migDebt -= take
			ts.rec.NS[Migration] += take
			ts.rec.NS[Run] += run - take
			ts.rec.NS[SMTSlowdown] += slow
		case host.Runnable:
			ts.rec.NS[StealWait] += el
			p.blameRunner(ts, vs.thread, el)
		case host.Throttled:
			ts.rec.NS[ThrottleWait] += el
		case host.Blocked:
			// Defensive: an installed task on a halted vCPU should not
			// happen; count it as steal against the host.
			ts.rec.NS[StealWait] += el
			p.blameEntity(ts, hostEnt, el)
		}
		return
	}
	switch state {
	case host.Runnable:
		// Queued behind a descheduled vCPU: the host, not the guest
		// scheduler, is withholding progress.
		ts.rec.NS[StealWait] += el
		p.blameRunner(ts, vs.thread, el)
	case host.Throttled:
		ts.rec.NS[ThrottleWait] += el
	default:
		// Running (queued behind the current task) or Blocked (waiting
		// for the idle vCPU's wake-kick to land): guest-side queueing.
		ts.rec.NS[RunnableWait] += el
	}
}

// blameRunner charges el of steal-wait to the entity Running on thread t, as
// far as this profiler has seen: a runner that last took the thread before
// the profiler attached is "(unknown)", as is any runner of an unknown
// thread.
func (p *Profiler) blameRunner(ts *taskState, t *hwThread, el sim.Duration) {
	ent := unknownEnt
	if t != nil && t.runner != nil && t.runnerSeq > p.attachSeq {
		ent = t.runner.ent
	}
	p.blameEntity(ts, ent, el)
}

// blameEntity charges el of steal-wait to the entity whose name index in
// the fold is ent.
func (p *Profiler) blameEntity(ts *taskState, ent uint32, el sim.Duration) {
	for i := range ts.stealBy {
		if ts.stealBy[i].ent == ent {
			ts.stealBy[i].wait += el
			return
		}
	}
	ts.stealBy = append(ts.stealBy, blameRec{ent: ent, wait: el})
}

// Finish settles every open span at time now and returns the profile.
// Spans still open stay open (counted, excluded from aggregates); the
// profiler remains usable and a later Finish extends the same spans.
func (p *Profiler) Finish(now sim.Time) *Profile {
	if now < p.lastAt {
		now = p.lastAt
	}
	// Host events reach a shared fold's profilers only where they have a
	// stake, but each one still counts as observed. (Events before the
	// attach are no later than any the profiler saw itself.)
	if now < p.fold.lastAt {
		now = p.fold.lastAt
	}
	for _, ts := range p.open {
		p.flushTask(ts, now)
	}
	// The profile shares the stores and name tables with the profiler.
	// Closed spans never change, and the views stop at today's lengths, so
	// the spans closed later are invisible to it.
	return &Profile{
		VM:        p.cfg.VM,
		Open:      len(p.open),
		Truncated: p.truncated,
		spans:     p.spans.view(),
		blame:     p.blame.view(),
		tasks:     p.names[:len(p.names):len(p.names)],
		ents:      p.fold.names[:len(p.fold.names):len(p.fold.names)],
	}
}

// Analyze reconstructs a profile post-hoc from a buffered event slice (e.g.
// tracer.Events()).
func Analyze(events []vtrace.Event, cfg Config) *Profile {
	p := New(cfg)
	for _, ev := range events {
		p.Observe(ev)
	}
	return p.Finish(p.lastAt)
}

// FromTracer analyzes a ring tracer's buffered events and records its drop
// counter, so a profile whose input lost events says so.
func FromTracer(tr *vtrace.Tracer, cfg Config) *Profile {
	prof := Analyze(tr.Events(), cfg)
	prof.DroppedEvents = tr.Dropped()
	return prof
}
