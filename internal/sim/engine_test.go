package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 100 {
		t.Fatalf("Run should land exactly on until: now=%v", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events must fire in insertion order, got %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	e.Run(20)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Active() {
		t.Fatal("cancelled event reports active")
	}
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var ev2 Event
	e.At(10, func() { ev2.Cancel() })
	ev2 = e.At(11, func() { fired = true })
	e.Run(20)
	if fired {
		t.Fatal("event cancelled by earlier event still fired")
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.After(5, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
	})
	e.Run(100)
	if len(trace) != 2 || trace[0] != 5 || trace[1] != 10 {
		t.Fatalf("nested scheduling wrong: %v", trace)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(20, func() { fired = append(fired, 20) })
	e.At(30, func() { fired = append(fired, 30) })
	e.Run(20)
	if len(fired) != 2 {
		t.Fatalf("events at exactly `until` must fire; got %v", fired)
	}
	e.Run(30)
	if len(fired) != 3 {
		t.Fatalf("remaining events must fire on next Run; got %v", fired)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		var step func()
		step = func() {
			out = append(out, int64(e.Now()))
			if len(out) < 50 {
				e.After(Duration(1+e.Rand().Int63n(1000)), step)
			}
		}
		e.After(1, step)
		e.Run(1 << 40)
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give identical schedules: %v vs %v at %d", a[i], b[i], i)
		}
	}
}

// Property: events always fire in non-decreasing time order no matter how
// they were inserted.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			e.At(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run(1 << 20)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVariateHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if d := Exp(rng, Millisecond); d < 0 {
			t.Fatal("Exp returned negative")
		}
		if d := Uniform(rng, 10, 20); d < 10 || d >= 20 {
			t.Fatalf("Uniform out of range: %d", d)
		}
		if d := Normal(rng, Millisecond, Millisecond); d < 0 {
			t.Fatal("Normal returned negative")
		}
		if d := Jitter(rng, 100, 0.5); d < 50 || d > 150 {
			t.Fatalf("Jitter out of range: %d", d)
		}
		if d := Pareto(rng, 1.5, 100, 10000); d < 100 || d > 10000 {
			t.Fatalf("Pareto out of range: %d", d)
		}
	}
	if Exp(rng, 0) != 0 {
		t.Fatal("Exp with non-positive mean must be 0")
	}
	if Uniform(rng, 20, 10) != 20 {
		t.Fatal("Uniform with hi<=lo must return lo")
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds: %v", tm.Seconds())
	}
	if tm.Add(500*Duration(Millisecond)).Sub(tm) != Duration(500*Millisecond) {
		t.Fatal("Add/Sub roundtrip failed")
	}
	if DurationOfSeconds(0.25) != 250*Millisecond {
		t.Fatal("DurationOfSeconds")
	}
}

func TestEngineAuxiliaries(t *testing.T) {
	e := NewEngine(1)
	if e.Pending() != 0 || e.Fired() != 0 {
		t.Fatal("fresh engine must be empty")
	}
	ev := e.At(10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending=%d", e.Pending())
	}
	if ev.Time() != 10 {
		t.Fatalf("event time=%v", ev.Time())
	}
	e.RunFor(15)
	if e.Fired() != 1 || e.Now() != 15 {
		t.Fatalf("fired=%d now=%v", e.Fired(), e.Now())
	}
	if n := e.Drain(10); n != 1 {
		t.Fatalf("drain=%d", n)
	}
	if e.Step() {
		t.Fatal("step on empty queue must return false")
	}
	var zero Event
	zero.Cancel() // must not panic
	if zero.Active() {
		t.Fatal("zero event is not active")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.At(Time(10*(i+1)), func() {})
	}
	if e.Pending() != 5 {
		t.Fatalf("pending=%d want 5", e.Pending())
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("cancelled events must not count: pending=%d want 3", e.Pending())
	}
	evs[1].Cancel() // double cancel must not double-count
	if e.Pending() != 3 {
		t.Fatalf("double cancel skewed accounting: pending=%d", e.Pending())
	}
	e.Run(35) // fires ev0, discards cancelled ev1, fires ev2
	if e.Fired() != 2 {
		t.Fatalf("fired=%d want 2", e.Fired())
	}
	if e.Pending() != 1 {
		t.Fatalf("after run pending=%d want 1", e.Pending())
	}
	evs[0].Cancel() // cancelling a fired event is a no-op
	if e.Pending() != 1 {
		t.Fatalf("cancel-after-fire skewed accounting: pending=%d", e.Pending())
	}
	e.Run(100)
	if e.Pending() != 0 || e.Fired() != 3 {
		t.Fatalf("end state pending=%d fired=%d", e.Pending(), e.Fired())
	}
}

func TestCancelThenRunDiscardsExactly(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.At(Time(i), func() { fired++ }))
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Cancel()
	}
	if e.Pending() != 50 {
		t.Fatalf("pending=%d want 50", e.Pending())
	}
	e.Run(1000)
	if fired != 50 || e.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", fired, e.Pending())
	}
}

func TestLazyCancellationPreservesOrderAndCollects(t *testing.T) {
	e := NewEngine(1)
	var order []Time
	var cancel []Event
	// Spread events across many ticks and slots so cancelled nodes sit in
	// wheel slots, not just the ready list.
	for i := 0; i < 4096; i++ {
		ev := e.At(Time(i)*Time(Millisecond), func() { order = append(order, e.Now()) })
		if i%8 != 0 {
			cancel = append(cancel, ev)
		}
	}
	for _, ev := range cancel {
		ev.Cancel()
	}
	if e.Pending() != 512 {
		t.Fatalf("pending=%d want 512", e.Pending())
	}
	e.Run(Time(4096) * Time(Millisecond))
	if len(order) != 512 {
		t.Fatalf("fired %d want 512", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("lazy cancellation broke ordering at %d: %v then %v", i, order[i-1], order[i])
		}
	}
	// Every cancelled node must have been collected back into the pool.
	if e.wheelCount != 0 || len(e.ready) != 0 || len(e.overflow) != 0 {
		t.Fatalf("garbage left behind: wheel=%d ready=%d overflow=%d",
			e.wheelCount, len(e.ready), len(e.overflow))
	}
}

func TestGenerationSafetyAfterReuse(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	stale := e.At(10, func() { fired++ })
	e.Run(10)
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
	// The node behind `stale` is back in the pool. Schedule a new event that
	// reuses it; the stale handle must stay inert.
	fresh := e.At(20, func() { fired++ })
	if stale.Active() {
		t.Fatal("stale handle reports active after node reuse")
	}
	stale.Cancel() // must NOT cancel the fresh event occupying the node
	if !fresh.Active() {
		t.Fatal("stale Cancel leaked through to the reused node")
	}
	if stale.Time() != 10 {
		t.Fatalf("stale handle lost its timestamp: %v", stale.Time())
	}
	e.Run(20)
	if fired != 2 {
		t.Fatalf("fresh event did not fire: fired=%d", fired)
	}
	// Same safety for cancel-then-reuse: a cancelled handle whose node is
	// collected and reissued must not be able to cancel the new occupant.
	c := e.At(30, func() {})
	c.Cancel()
	e.Run(30) // collects the cancelled node
	reused := e.At(40, func() { fired++ })
	c.Cancel() // stale double-cancel
	if !reused.Active() {
		t.Fatal("stale double-Cancel killed a reused node")
	}
	e.Run(40)
	if fired != 3 {
		t.Fatalf("reused event did not fire: fired=%d", fired)
	}
}

func TestFarFutureOverflowAndPromotion(t *testing.T) {
	e := NewEngine(1)
	var order []Time
	// Beyond the wheel horizon (~68.7s): lands in the overflow heap.
	far := Time(600) * Time(Second)
	e.At(far, func() { order = append(order, e.Now()) })
	e.At(far+1, func() { order = append(order, e.Now()) })
	// Near-future event interleaved.
	e.At(5, func() { order = append(order, e.Now()) })
	if len(e.overflow) != 2 {
		t.Fatalf("far events not in overflow: %d", len(e.overflow))
	}
	e.Run(far + 1)
	want := []Time{5, far, far + 1}
	if len(order) != 3 {
		t.Fatalf("fired %d want 3: %v", len(order), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("promotion broke order: got %v want %v", order, want)
		}
	}
}

func TestInterruptStopsExecution(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() { fired++ })
	}
	e.At(4, func() { e.Interrupt() })
	e.Run(100)
	if fired != 5 {
		t.Fatalf("interrupt must stop further events: fired=%d", fired)
	}
	if !e.Interrupted() {
		t.Fatal("Interrupted() must report true")
	}
	if e.Now() != 100 {
		t.Fatalf("interrupted Run must still land on until: now=%v", e.Now())
	}
	e.RunFor(50)
	if fired != 5 {
		t.Fatal("interrupted engine fired more events")
	}
	if e.Step() {
		t.Fatal("Step on interrupted engine must return false")
	}
	if e.Drain(10) != 0 {
		t.Fatal("Drain on interrupted engine must execute nothing")
	}
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.After(-1, func() {})
}

// TestEngineNegativeRunForPanics: RunFor(-d) used to run nothing and report
// nothing; it panics naming the duration, and leaves the clock and the queue
// untouched.
func TestEngineNegativeRunForPanics(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(0, func() { fired = true })
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "negative run duration") || !strings.Contains(msg, Duration(-Millisecond).String()) {
			t.Fatalf("panic %q does not name the negative duration", msg)
		}
		if fired || e.Now() != 0 {
			t.Fatalf("RunFor(-1ms) fired=%v now=%v, want nothing run", fired, e.Now())
		}
	}()
	e.RunFor(-Millisecond)
}

func TestDrainLimit(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() { count++ })
	}
	if n := e.Drain(4); n != 4 || count != 4 {
		t.Fatalf("drain=%d count=%d", n, count)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if s := Time(1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("time string %q", s)
	}
	if s := (2500 * Microsecond).String(); s != "2.500ms" {
		t.Fatalf("duration string %q", s)
	}
	if Time(3*Millisecond).Milliseconds() != 3 {
		t.Fatal("time ms")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("duration seconds")
	}
	if (2 * Millisecond).Milliseconds() != 2 {
		t.Fatal("duration ms")
	}
}

func TestVariateEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if Jitter(rng, 100, 0) != 100 {
		t.Fatal("zero jitter must return base")
	}
	if Pareto(rng, 0, 100, 1000) != 100 {
		t.Fatal("degenerate pareto must return min")
	}
	if Pareto(rng, 2, 0, 1000) != 0 {
		t.Fatal("non-positive min must return min")
	}
}
