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
// and those with a vCPU homed on a thread it touches). Each view entry is
// stamped with the sequence number of the host event that last wrote it,
// and a profiler counts an entry as seen only if it was written after the
// profiler attached; that rule makes a shared fold reconstruct exactly what
// a private one fed from the attach point on would. New gives a profiler a
// private fold, so standalone and fleet attribution take one code path.
//
// Determinism: the profiler is a pure fold over the event stream. Feeding
// the same events yields byte-identical reports; all aggregation orders are
// explicit (task id, name, or span order), never map order.
//
// Memory: a warm span allocates nothing from wakeup to close. Open-span
// state is recycled, steal blame accumulates in a small slice, and each
// closed span's sorted StealBy is carved from a per-profiler arena. Finish
// does not copy: Profile.Spans (and every span's StealBy) shares storage
// with the profiler and is read-only. Spans closed after a Finish never
// show up in, or change, a profile it returned.
package latprof

import (
	"cmp"
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
}

// taskState is an open span under reconstruction.
type taskState struct {
	id      int64
	vcpu    int
	running bool
	since   sim.Time
	span    Span
	// stealBy accumulates the span's steal-wait per blamed entity, in
	// first-blame order. A span blames a handful of entities at most, so a
	// linear scan beats a map, and the slice is reused across spans.
	stealBy []Blame
	// migDebt is traced migration cost (ns at nominal speed) not yet
	// carved out of subsequent run time.
	migDebt sim.Duration
	// truncated marks a span first seen mid-stream (its wakeup predates
	// the tap or was dropped); it is reconstructed but excluded from
	// aggregates.
	truncated bool
	// slot is the task's index in Profiler.open.
	slot int
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

	tasks map[int64]*taskState
	// open holds the same tasks densely (swap-delete), so settling a thread
	// or vCPU scans a slice. Each flush touches only its own span, so the
	// scan order cannot change a result.
	open  []*taskState
	vcpus []vcpuState

	spans     []Span
	truncated int
	lastAt    sim.Time

	// free holds closed taskStates for reuse. blameArena is the current
	// chunk closed spans' StealBy slices are carved from; blameChunk is
	// the capacity of the next chunk.
	free       []*taskState
	blameArena []Blame
	blameChunk int
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
		if vs.thread != nil {
			vs.thread.unhome(p)
		}
		t.home(p)
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
	if ts := p.tasks[id]; ts != nil {
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
	ts.span = Span{Task: ev.Subject, TaskID: id, Start: ev.At, WakerID: ev.A2}
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

// add opens ts; drop forgets it.
func (p *Profiler) add(ts *taskState) {
	ts.slot = len(p.open)
	p.open = append(p.open, ts)
	p.tasks[ts.id] = ts
}

func (p *Profiler) drop(ts *taskState) {
	last := p.open[len(p.open)-1]
	p.open[ts.slot] = last
	last.slot = ts.slot
	p.open[len(p.open)-1] = nil
	p.open = p.open[:len(p.open)-1]
	delete(p.tasks, ts.id)
}

func (p *Profiler) taskOn(ev vtrace.Event) {
	id := ev.A1
	ts := p.tasks[id]
	if ts == nil {
		// First sight mid-run: reconstruct from here but mark truncated.
		ts = p.alloc()
		ts.id = id
		ts.since = ev.At
		ts.span = Span{Task: ev.Subject, TaskID: id, Start: ev.At, WakerID: -1}
		ts.truncated = true
		p.add(ts)
	}
	p.flushTask(ts, ev.At)
	ts.running = true
	ts.vcpu = int(ev.A0)
}

func (p *Profiler) taskOff(ev vtrace.Event) {
	id := ev.A1
	ts := p.tasks[id]
	if ts == nil {
		return // open predates the tap; nothing to close
	}
	p.flushTask(ts, ev.At)
	ts.running = false
	ts.vcpu = int(ev.A0)
	if ev.A2 == 1 {
		return // preempted or migrating: span continues queued
	}
	p.closeSpan(ts, ev.At)
}

func (p *Profiler) migrate(ev vtrace.Event) {
	ts := p.tasks[ev.A0]
	if ts == nil {
		return
	}
	p.flushTask(ts, ev.At)
	ts.vcpu = int(ev.A2)
	ts.span.Migrations++
}

func (p *Profiler) migCost(ev vtrace.Event) {
	ts := p.tasks[ev.A0]
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
		ts.span.End = at
		ts.span.StealBy = p.sortedBlame(ts.stealBy)
		p.spans = append(p.spans, ts.span)
	}
	p.release(ts)
}

// Blame arena chunks start small, so the many profilers of a fleet with
// little steal stay small, and double up to a cap.
const (
	minBlameChunk = 16
	maxBlameChunk = 4096
)

// sortedBlame copies acc into a slice carved from the profiler's blame
// arena, sorted by wait (largest first), then entity name. The result's
// capacity is its length, so nothing appended to it can reach the arena.
func (p *Profiler) sortedBlame(acc []Blame) []Blame {
	n := len(acc)
	if n == 0 {
		return nil
	}
	if cap(p.blameArena)-len(p.blameArena) < n {
		if p.blameChunk < minBlameChunk {
			p.blameChunk = minBlameChunk
		}
		p.blameArena = make([]Blame, 0, max(p.blameChunk, n))
		p.blameChunk = min(2*p.blameChunk, maxBlameChunk)
	}
	lo := len(p.blameArena)
	p.blameArena = append(p.blameArena, acc...)
	out := p.blameArena[lo : lo+n : lo+n]
	sortBlame(out)
	return out
}

// sortBlame orders blame by wait (largest first), then entity name.
func sortBlame(b []Blame) {
	slices.SortFunc(b, func(x, y Blame) int {
		if x.Wait != y.Wait {
			return cmp.Compare(y.Wait, x.Wait)
		}
		return strings.Compare(x.Entity, y.Entity)
	})
}

// flushThread settles every open span whose vCPU sits on hardware thread t.
func (p *Profiler) flushThread(at sim.Time, t *hwThread) {
	for _, ts := range p.open {
		if p.homeOf(ts.vcpu) == t {
			p.flushTask(ts, at)
		}
	}
}

// flushVCPU settles every open span currently homed on vCPU idx.
func (p *Profiler) flushVCPU(at sim.Time, idx int) {
	for _, ts := range p.open {
		if ts.vcpu == idx {
			p.flushTask(ts, at)
		}
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
			ts.span.NS[Migration] += take
			ts.span.NS[Run] += run - take
			ts.span.NS[SMTSlowdown] += slow
		case host.Runnable:
			ts.span.NS[StealWait] += el
			p.blame(ts, vs.thread, el)
		case host.Throttled:
			ts.span.NS[ThrottleWait] += el
		case host.Blocked:
			// Defensive: an installed task on a halted vCPU should not
			// happen; count it as steal against the host.
			ts.span.NS[StealWait] += el
			p.blameName(ts, "(host)", el)
		}
		return
	}
	switch state {
	case host.Runnable:
		// Queued behind a descheduled vCPU: the host, not the guest
		// scheduler, is withholding progress.
		ts.span.NS[StealWait] += el
		p.blame(ts, vs.thread, el)
	case host.Throttled:
		ts.span.NS[ThrottleWait] += el
	default:
		// Running (queued behind the current task) or Blocked (waiting
		// for the idle vCPU's wake-kick to land): guest-side queueing.
		ts.span.NS[RunnableWait] += el
	}
}

// blame charges el of steal-wait to the entity Running on thread t, as far
// as this profiler has seen: a runner that last took the thread before the
// profiler attached is "(unknown)", as is any runner of an unknown thread.
func (p *Profiler) blame(ts *taskState, t *hwThread, el sim.Duration) {
	name := "(unknown)"
	if t != nil && t.runner != nil && t.runnerSeq > p.attachSeq {
		name = t.runner.name
	}
	p.blameName(ts, name, el)
}

func (p *Profiler) blameName(ts *taskState, name string, el sim.Duration) {
	for i := range ts.stealBy {
		if ts.stealBy[i].Entity == name {
			ts.stealBy[i].Wait += el
			return
		}
	}
	ts.stealBy = append(ts.stealBy, Blame{Entity: name, Wait: el})
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
	// The profile shares the closed spans with the profiler. Closed spans
	// never change, and the profile's capacity stops at its length, so the
	// spans closed later are invisible to it.
	n := len(p.spans)
	return &Profile{
		VM:        p.cfg.VM,
		Spans:     p.spans[:n:n],
		Open:      len(p.tasks),
		Truncated: p.truncated,
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
