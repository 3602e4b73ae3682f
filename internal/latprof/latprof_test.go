package latprof

import (
	"math"
	"reflect"
	"testing"

	"vsched/internal/host"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// feed is a synthetic event-stream builder for exact-value unit tests.
type feed struct {
	p *Profiler
}

func newFeed(nominal float64) *feed {
	return &feed{p: New(Config{VM: "vm", NominalSpeed: nominal})}
}

func (f *feed) ent(at sim.Time, name string, from, to host.EntityState, thread int64) {
	f.p.Observe(vtrace.Event{At: at, Kind: vtrace.KindEntityState, Subject: name,
		A0: int64(from), A1: int64(to), A2: thread})
}

func (f *feed) speed(at sim.Time, vcpu int, micro int64) {
	f.p.Observe(vtrace.Event{At: at, Kind: vtrace.KindVCPUSpeed, Subject: "vm",
		A0: int64(vcpu), A1: micro})
}

func (f *feed) wakeup(at sim.Time, task string, id, vcpu, waker int64) {
	f.p.Observe(vtrace.Event{At: at, Kind: vtrace.KindTaskWakeup, Subject: task,
		A0: id, A1: vcpu, A2: waker})
}

func (f *feed) on(at sim.Time, task string, id, vcpu int64) {
	f.p.Observe(vtrace.Event{At: at, Kind: vtrace.KindTaskOn, Subject: task,
		A0: vcpu, A1: id})
}

func (f *feed) off(at sim.Time, task string, id, vcpu, still int64) {
	f.p.Observe(vtrace.Event{At: at, Kind: vtrace.KindTaskOff, Subject: task,
		A0: vcpu, A1: id, A2: still})
}

func (f *feed) migrate(at sim.Time, task string, id, src, dst int64) {
	f.p.Observe(vtrace.Event{At: at, Kind: vtrace.KindTaskMigrate, Subject: task,
		A0: id, A1: src, A2: dst})
}

func (f *feed) migCost(at sim.Time, task string, id, cycles int64) {
	f.p.Observe(vtrace.Event{At: at, Kind: vtrace.KindMigCost, Subject: task,
		A0: id, A1: cycles})
}

const ms = sim.Millisecond

func at(n int) sim.Time { return sim.Time(n) * sim.Time(ms) }

// spansOf rebuilds every span of p, in close order.
func spansOf(p *Profile) []Span {
	out := make([]Span, p.Len())
	for i := range out {
		out[i] = p.Span(i)
	}
	return out
}

// profileView is everything a profile reports. Two profiles can number
// their task and entity names differently, so tests compare views.
type profileView struct {
	VM              string
	Open, Truncated int
	DroppedEvents   uint64
	Spans           []Span
}

func viewOf(p *Profile) profileView {
	return profileView{VM: p.VM, Open: p.Open, Truncated: p.Truncated, DroppedEvents: p.DroppedEvents, Spans: spansOf(p)}
}

func wantNS(t *testing.T, s *Span, c Cause, want sim.Duration) {
	t.Helper()
	if got := s.NS[c]; got != want {
		t.Errorf("%s = %v, want %v", c, got, want)
	}
}

// TestRunAndStealClassification: a task running while its vCPU is preempted
// accrues steal-wait blamed on the entity holding the thread.
func TestRunAndStealClassification(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.speed(0, 0, 2e6)
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	// Host preempts the vCPU for a co-tenant for 5ms.
	f.ent(at(10), "vm/vcpu0", host.Running, host.Runnable, 0)
	f.ent(at(10), "tenant", host.Runnable, host.Running, 0)
	f.ent(at(15), "tenant", host.Running, host.Blocked, 0)
	f.ent(at(15), "vm/vcpu0", host.Runnable, host.Running, 0)
	f.off(at(20), "a", 1, 0, 0)

	prof := f.p.Finish(at(20))
	if err := prof.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if prof.Len() != 1 {
		t.Fatalf("spans = %d, want 1", prof.Len())
	}
	s := prof.Span(0)
	if s.Wall() != 20*ms {
		t.Fatalf("wall = %v, want 20ms", s.Wall())
	}
	wantNS(t, &s, Run, 15*ms)
	wantNS(t, &s, StealWait, 5*ms)
	if len(s.StealBy) != 1 || s.StealBy[0].Entity != "tenant" || s.StealBy[0].Wait != 5*ms {
		t.Fatalf("StealBy = %+v, want tenant 5ms", s.StealBy)
	}
}

// TestStealBlameFollowsRunnerMove: when the entity running on a stalled
// vCPU's thread moves to another thread, the stalled task is settled first,
// so the time before the move is blamed on it and the time after on nobody
// known.
func TestStealBlameFollowsRunnerMove(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "tenant", host.Runnable, host.Running, 0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Runnable, 0)
	f.wakeup(0, "a", 1, 0, -1)
	f.ent(at(5), "tenant", host.Running, host.Runnable, 1)
	f.ent(at(10), "vm/vcpu0", host.Runnable, host.Running, 0)
	f.on(at(10), "a", 1, 0)
	f.off(at(12), "a", 1, 0, 0)

	prof := f.p.Finish(at(12))
	if prof.Len() != 1 {
		t.Fatalf("spans = %d, want 1", prof.Len())
	}
	s := prof.Span(0)
	wantNS(t, &s, StealWait, 10*ms)
	wantNS(t, &s, Run, 2*ms)
	want := []Blame{{Entity: "(unknown)", Wait: 5 * ms}, {Entity: "tenant", Wait: 5 * ms}}
	if !reflect.DeepEqual(s.StealBy, want) {
		t.Fatalf("StealBy = %+v, want %+v", s.StealBy, want)
	}
}

// TestRunnableWaitVsStealWait: a queued task waits on the guest scheduler
// while its vCPU runs, and on the host while the vCPU is descheduled.
func TestRunnableWaitVsStealWait(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.speed(0, 0, 2e6)
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	f.wakeup(0, "b", 2, 0, -1) // queued behind a
	f.ent(at(10), "vm/vcpu0", host.Running, host.Runnable, 0)
	f.ent(at(10), "tenant", host.Runnable, host.Running, 0)
	f.ent(at(15), "tenant", host.Running, host.Blocked, 0)
	f.ent(at(15), "vm/vcpu0", host.Runnable, host.Running, 0)
	f.off(at(20), "a", 1, 0, 0)
	f.on(at(20), "b", 2, 0)
	f.off(at(25), "b", 2, 0, 0)

	prof := f.p.Finish(at(25))
	if err := prof.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if prof.Len() != 2 {
		t.Fatalf("spans = %d, want 2", prof.Len())
	}
	b := prof.Span(1)
	if b.Task != "b" {
		t.Fatalf("second span = %s, want b", b.Task)
	}
	wantNS(t, &b, RunnableWait, 15*ms) // 0-10 queued + 15-20 queued
	wantNS(t, &b, StealWait, 5*ms)     // 10-15 vCPU descheduled
	wantNS(t, &b, Run, 5*ms)           // 20-25
}

// TestSMTSlowdownSplit: run time at half the nominal speed splits evenly
// into run and smt-slowdown, summing exactly.
func TestSMTSlowdownSplit(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.speed(0, 0, 2e6)
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	f.speed(at(10), 0, 1e6) // sibling woke: half speed
	f.off(at(20), "a", 1, 0, 0)

	prof := f.p.Finish(at(20))
	if err := prof.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := prof.Span(0)
	wantNS(t, &s, Run, 15*ms)
	wantNS(t, &s, SMTSlowdown, 5*ms)
}

// TestTurboNeverNegative: speed above nominal must not produce a negative
// smt-slowdown component.
func TestTurboNeverNegative(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.speed(0, 0, 23e5) // 1.15x turbo
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	f.off(at(10), "a", 1, 0, 0)

	prof := f.p.Finish(at(10))
	s := prof.Span(0)
	wantNS(t, &s, Run, 10*ms)
	wantNS(t, &s, SMTSlowdown, 0)
}

// TestThrottleWait: a Throttled vCPU accrues throttle-wait whether the task
// is installed or queued.
func TestThrottleWait(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.speed(0, 0, 2e6)
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	f.ent(at(10), "vm/vcpu0", host.Running, host.Throttled, 0)
	f.ent(at(30), "vm/vcpu0", host.Throttled, host.Runnable, 0)
	f.ent(at(30), "vm/vcpu0", host.Runnable, host.Running, 0)
	f.off(at(35), "a", 1, 0, 0)

	prof := f.p.Finish(at(35))
	if err := prof.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := prof.Span(0)
	wantNS(t, &s, Run, 15*ms)
	wantNS(t, &s, ThrottleWait, 20*ms)
}

// TestMigrationCarve: traced migration cost converts to nanoseconds at
// nominal speed and is carved out of subsequent run time.
func TestMigrationCarve(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.ent(0, "vm/vcpu1", host.Blocked, host.Running, 1)
	f.speed(0, 0, 2e6)
	f.speed(0, 1, 2e6)
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	f.off(at(10), "a", 1, 0, 1)          // pulled while runnable
	f.migCost(at(10), "a", 1, 2_000_000) // 2e6 cycles @ 2.0 = 1ms
	f.migrate(at(10), "a", 1, 0, 1)
	f.on(at(10), "a", 1, 1)
	f.off(at(20), "a", 1, 1, 0)

	prof := f.p.Finish(at(20))
	if err := prof.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := prof.Span(0)
	wantNS(t, &s, Migration, 1*ms)
	wantNS(t, &s, Run, 19*ms)
	if s.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", s.Migrations)
	}
}

// TestPreemptionKeepsSpanOpen: TaskOff with the still-runnable flag must not
// close the span; the final blocking TaskOff does.
func TestPreemptionKeepsSpanOpen(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.speed(0, 0, 2e6)
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	f.off(at(5), "a", 1, 0, 1) // guest preemption: still runnable
	f.on(at(8), "a", 1, 0)
	f.off(at(12), "a", 1, 0, 0)

	prof := f.p.Finish(at(12))
	if prof.Len() != 1 {
		t.Fatalf("spans = %d, want 1 (preemption split the span)", prof.Len())
	}
	s := prof.Span(0)
	if s.Wall() != 12*ms {
		t.Fatalf("wall = %v, want 12ms", s.Wall())
	}
	wantNS(t, &s, Run, 9*ms)
	wantNS(t, &s, RunnableWait, 3*ms)
}

// TestTruncatedSpansExcluded: a task first seen mid-run is reconstructed but
// not aggregated; a task never closed stays open.
func TestTruncatedSpansExcluded(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.on(at(5), "mystery", 9, 0) // no wakeup seen
	f.off(at(10), "mystery", 9, 0, 0)
	f.wakeup(at(10), "open", 10, 0, -1)
	f.on(at(10), "open", 10, 0)

	prof := f.p.Finish(at(20))
	if prof.Len() != 0 {
		t.Fatalf("spans = %d, want 0", prof.Len())
	}
	if prof.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", prof.Truncated)
	}
	if prof.Open != 1 {
		t.Fatalf("open = %d, want 1", prof.Open)
	}
}

// TestTailShare: the tail holds the longest spans, ties broken by span
// order, and between one span and all of them whatever q is: a q outside
// [0, 1], infinite or NaN still returns a share.
func TestTailShare(t *testing.T) {
	if got := newFeed(2.0).p.Finish(0).TailShare(StealWait, 0.95); got != 0 {
		t.Fatalf("empty profile: TailShare = %v, want 0", got)
	}
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	// a: 4ms, 1ms of it steal-wait; b: 2ms; c: 4ms, ties with a.
	f.wakeup(0, "a", 1, 0, -1)
	f.on(0, "a", 1, 0)
	f.ent(at(1), "vm/vcpu0", host.Running, host.Runnable, 0)
	f.ent(at(1), "tenant", host.Runnable, host.Running, 0)
	f.ent(at(2), "tenant", host.Running, host.Runnable, 0)
	f.ent(at(2), "vm/vcpu0", host.Runnable, host.Running, 0)
	f.off(at(4), "a", 1, 0, 0)
	f.wakeup(at(4), "b", 2, 0, -1)
	f.on(at(4), "b", 2, 0)
	f.off(at(6), "b", 2, 0, 0)
	f.wakeup(at(6), "c", 3, 0, -1)
	f.on(at(6), "c", 3, 0)
	f.off(at(10), "c", 3, 0, 0)
	prof := f.p.Finish(at(10))
	for _, c := range []struct {
		q, want float64
	}{
		{0.95, 0.25}, // one span: a, the first of the two longest
		{0.5, 0.25},
		{0.2, 0.125}, // a and c
		{0, 0.1},     // all three
		{1, 0.25},
		{-0.5, 0.1}, // more than all: all
		{math.Inf(-1), 0.1},
		{1.5, 0.25}, // fewer than one: one
		{math.Inf(1), 0.25},
		{math.NaN(), 0.25},
	} {
		if got := prof.TailShare(StealWait, c.q); got != c.want {
			t.Errorf("TailShare(steal-wait, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// published is the profile's Publish output as a flat name->value map.
func published(p *Profile) map[string]float64 {
	reg := metrics.NewRegistry()
	p.Publish(reg)
	m := map[string]float64{}
	reg.VisitNumeric(func(name string, v float64) { m[name] = v })
	return m
}

// TestPublish: the registry carries every cause and the span totals, all as
// gauges.
func TestPublish(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.speed(0, 0, 2e6)
	f.wakeup(0, "z", 1, 0, -1)
	f.on(0, "z", 1, 0)
	f.off(at(3), "z", 1, 0, 0)
	f.wakeup(at(3), "a", 2, 0, -1)
	f.on(at(3), "a", 2, 0)
	f.off(at(7), "a", 2, 0, 0)

	prof := f.p.Finish(at(7))
	reg := metrics.NewRegistry()
	prof.Publish(reg)
	readings := map[string]float64{}
	reg.VisitNumeric(func(name string, v float64) { readings[name] = v })
	want := 4 + 3*len(Causes())
	if len(readings) != want {
		t.Fatalf("published %d readings, want %d", len(readings), want)
	}
	// Each reading is a gauge: looking it up as one finds the published value
	// (a counter would panic, a histogram sub-key would make a fresh gauge).
	for name, v := range readings {
		if g := reg.Gauge(name).Value(); g != v {
			t.Fatalf("%s: gauge reads %v, published %v", name, g, v)
		}
	}
	n := 0
	reg.VisitNumeric(func(string, float64) { n++ })
	if n != want {
		t.Fatalf("%d readings after the gauge lookups, want %d: some were not gauges", n, want)
	}
	flat := published(prof)
	for _, c := range Causes() {
		for _, suffix := range []string{"_ns", "_share", "_p95_ns"} {
			if _, ok := flat[c.Key()+suffix]; !ok {
				t.Fatalf("Publish missing %s%s", c.Key(), suffix)
			}
		}
	}
	if flat["spans"] != 2 {
		t.Fatalf("spans = %v, want 2", flat["spans"])
	}
	if flat["run_ns"] != float64(7*ms) {
		t.Fatalf("run_ns = %v, want %v", flat["run_ns"], float64(7*ms))
	}
}

// stealCycle appends one span of task 1 to f: woken and installed on vCPU
// 0, stalled 1ms behind a tenant on thread 0, then run and blocked.
func (f *feed) stealCycle(now *sim.Time) {
	*now += sim.Time(ms)
	f.wakeup(*now, "a", 1, 0, -1)
	f.on(*now, "a", 1, 0)
	*now += sim.Time(ms)
	f.ent(*now, "vm/vcpu0", host.Running, host.Runnable, 0)
	f.ent(*now, "tenant", host.Runnable, host.Running, 0)
	*now += sim.Time(ms)
	f.ent(*now, "tenant", host.Running, host.Runnable, 0)
	f.ent(*now, "vm/vcpu0", host.Runnable, host.Running, 0)
	*now += sim.Time(ms)
	f.off(*now, "a", 1, 0, 0)
}

// TestProfileSharesSpans: Finish hands out the profiler's closed spans
// without copying them, yet an earlier profile never changes: not when more
// spans close after it, and not when a later Finish settles more. The later
// profile extends the earlier one.
func TestProfileSharesSpans(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	var now sim.Time
	for i := 0; i < 3; i++ {
		f.stealCycle(&now)
	}
	f.wakeup(now, "b", 2, 0, 1) // left open across both Finish calls
	first := f.p.Finish(now)
	if &first.spans.chunks[0][0] != &f.p.spans.chunks[0][0] || &first.blame.chunks[0][0] != &f.p.blame.chunks[0][0] {
		t.Fatal("Finish copied the span or blame store")
	}
	before := viewOf(first)
	for i := 0; i < 40; i++ { // enough to outgrow the first span and blame chunks
		f.stealCycle(&now)
	}
	second := f.p.Finish(now)
	if after := viewOf(first); !reflect.DeepEqual(after, before) {
		t.Fatalf("earlier profile changed:\nbefore %+v\n after %+v", before, after)
	}
	if first.Len() != 3 || second.Len() != 43 {
		t.Fatalf("spans = %d then %d, want 3 then 43", first.Len(), second.Len())
	}
	if !reflect.DeepEqual(spansOf(second)[:3], before.Spans) {
		t.Fatal("second profile does not extend the first")
	}
	for i := range second.Len() {
		want := []Blame{{Entity: "tenant", Wait: ms}}
		if s := second.Span(i); !reflect.DeepEqual(s.StealBy, want) {
			t.Fatalf("span %d StealBy = %+v, want %+v", i, s.StealBy, want)
		}
	}
	if first.Open != 1 || second.Open != 1 {
		t.Fatalf("open = %d then %d, want 1 then 1", first.Open, second.Open)
	}
}

// TestSpanAllocBudget: a warm wakeup→on→off cycle, steal blame included,
// allocates nothing per cycle. The span and blame stores grow in chunks, so
// their occasional growth amortizes to zero.
func TestSpanAllocBudget(t *testing.T) {
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	var now sim.Time
	f.stealCycle(&now)
	if n := testing.AllocsPerRun(1000, func() { f.stealCycle(&now) }); n != 0 {
		t.Fatalf("span cycle allocates %v times, want 0", n)
	}
	if got := f.p.Finish(now).Len(); got != 1002 {
		t.Fatalf("spans = %d, want 1002", got)
	}
}

// TestTaskIDsOutsideDenseTable: task ids are indexed densely, but an id the
// table does not cover (negative or huge) is reconstructed all the same.
func TestTaskIDsOutsideDenseTable(t *testing.T) {
	spans := func(id int64) []Span {
		f := newFeed(2.0)
		f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
		var now sim.Time
		for i := 0; i < 3; i++ {
			now += sim.Time(ms)
			f.wakeup(now, "a", id, 0, -1)
			f.on(now, "a", id, 0)
			f.migrate(now+sim.Time(ms)/2, "a", id, 0, 0)
			now += sim.Time(ms)
			f.ent(now, "vm/vcpu0", host.Running, host.Runnable, 0)
			f.ent(now, "tenant", host.Runnable, host.Running, 0)
			now += sim.Time(ms)
			f.ent(now, "tenant", host.Running, host.Runnable, 0)
			f.ent(now, "vm/vcpu0", host.Runnable, host.Running, 0)
			now += sim.Time(ms)
			f.off(now, "a", id, 0, 0)
		}
		f.wakeup(now, "a", id, 0, -1) // left open
		p := f.p.Finish(now)
		if p.Open != 1 {
			t.Fatalf("id %d: open = %d, want 1", id, p.Open)
		}
		out := spansOf(p)
		for i := range out {
			out[i].TaskID = 0
		}
		return out
	}
	want := spans(1)
	if len(want) != 3 || want[0].Migrations != 1 || want[0].NS[StealWait] != ms {
		t.Fatalf("spans %+v, want three with one migration and 1ms steal-wait each", want)
	}
	for _, id := range []int64{-5, maxTaskID, 1 << 40} {
		if got := spans(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("id %d: spans %+v, want %+v", id, got, want)
		}
	}
}
