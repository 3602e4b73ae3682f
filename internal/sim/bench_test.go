package sim_test

// Benchmarks comparing the timing-wheel engine against the retained heap
// engine on the schedule/fire/cancel primitives, across backlog sizes from
// 64 to 1e6 pending events. Run with:
//
//	go test ./internal/sim/ -bench . -benchmem
//
// plus an allocation gate (TestScheduleFireAllocBudget) that runs as a
// normal tier-1 test: the wheel's steady-state schedule→fire path must not
// allocate, or the pooling regressed.

import (
	"fmt"
	"math/rand"
	"testing"

	"vsched/internal/sim"
	"vsched/internal/sim/heapengine"
)

// queue is what the shared benchmark bodies need of an engine. E is the
// engine's handle type; the bodies are generic over the two concrete
// engines, so neither schedule nor cancel goes through an interface or a
// method value — either would box or allocate per operation and the
// benchmark would measure that instead of the queue.
type queue[E interface{ Cancel() }] interface {
	After(d sim.Duration, fn func()) E
	Step() bool
}

var pendingSizes = []int{64, 512, 1_000, 10_000, 100_000, 1_000_000}

// benchEngines runs body once per engine and backlog size, as sub-benchmarks
// named <engine>/pending=<n>.
func benchEngines(b *testing.B, body func(b *testing.B, name string, pending int)) {
	for _, name := range []string{"wheel", "heap"} {
		for _, pending := range pendingSizes {
			b.Run(fmt.Sprintf("%s/pending=%d", name, pending), func(b *testing.B) {
				b.ReportAllocs()
				body(b, name, pending)
			})
		}
	}
}

// benchDelays pre-generates a deterministic delay sequence biased toward the
// near future (the simulator's real workload: ticks, slices, probes), with a
// far-future tail.
func benchDelays(n int) []sim.Duration {
	rng := rand.New(rand.NewSource(99))
	out := make([]sim.Duration, n)
	for i := range out {
		if rng.Intn(50) == 0 {
			out[i] = sim.Duration(rng.Int63n(int64(100 * sim.Second)))
		} else {
			out[i] = sim.Duration(rng.Int63n(int64(10 * sim.Millisecond)))
		}
	}
	return out
}

// fill schedules one no-op event per delay.
func fill[E interface{ Cancel() }, Q queue[E]](q Q, delays []sim.Duration, fn func()) {
	for _, d := range delays {
		q.After(d, fn)
	}
}

func scheduleFire[E interface{ Cancel() }, Q queue[E]](b *testing.B, q Q, pending int) {
	delays := benchDelays(pending)
	fn := func() {}
	fill[E](q, delays, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
		q.After(delays[i%pending], fn)
	}
}

// BenchmarkScheduleFire: hold `pending` events in the queue, then repeatedly
// fire the earliest and schedule a replacement — the steady-state mix every
// simulation scenario produces. The paper suite runs at backlogs of 4–255
// events and a micro fleet at 256–1023, hence pending=64 and 512.
func BenchmarkScheduleFire(b *testing.B) {
	benchEngines(b, func(b *testing.B, name string, pending int) {
		if name == "wheel" {
			scheduleFire[sim.Event](b, sim.NewEngine(1), pending)
		} else {
			scheduleFire[*heapengine.Event](b, heapengine.NewEngine(1), pending)
		}
	})
}

func schedule[E interface{ Cancel() }, Q queue[E]](b *testing.B, q Q, pending int) {
	delays := benchDelays(pending)
	fn := func() {}
	fill[E](q, delays, fn)
	evs := make([]E, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs = append(evs, q.After(delays[i%pending], fn))
	}
	// Cleanup outside the timer.
	b.StopTimer()
	for _, ev := range evs {
		ev.Cancel()
	}
}

// BenchmarkSchedule: pure insertion cost at a given backlog.
func BenchmarkSchedule(b *testing.B) {
	benchEngines(b, func(b *testing.B, name string, pending int) {
		if name == "wheel" {
			schedule[sim.Event](b, sim.NewEngine(1), pending)
		} else {
			schedule[*heapengine.Event](b, heapengine.NewEngine(1), pending)
		}
	})
}

func cancel[E interface{ Cancel() }, Q queue[E]](b *testing.B, q Q, pending int) {
	delays := benchDelays(pending)
	fn := func() {}
	fill[E](q, delays, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(delays[i%pending], fn).Cancel()
	}
}

// BenchmarkCancel: schedule-then-cancel churn at a given backlog; lazy
// cancellation makes this O(1) for the wheel, while the heap engine pays
// for compaction sweeps.
func BenchmarkCancel(b *testing.B) {
	benchEngines(b, func(b *testing.B, name string, pending int) {
		if name == "wheel" {
			cancel[sim.Event](b, sim.NewEngine(1), pending)
		} else {
			cancel[*heapengine.Event](b, heapengine.NewEngine(1), pending)
		}
	})
}

// scheduleFireAllocBudget is the pinned allocation budget for one
// schedule→fire round trip on the wheel in steady state (node pool warm).
// The engine's design target is zero: nodes are pooled in the arena, slots
// are threaded through it, and the ready list reuses its slice. If this test fails,
// the pool regressed — fix the engine, don't raise the budget.
const scheduleFireAllocBudget = 0

func TestScheduleFireAllocBudget(t *testing.T) {
	e := sim.NewEngine(1)
	delays := benchDelays(10_000)
	for _, d := range delays {
		e.After(d, func() {})
	}
	// Warm up: cycle every node through fire→reschedule once so the pool and
	// slot arrays reach steady state.
	fn := func() {}
	for i := 0; i < 20_000; i++ {
		e.Step()
		e.After(delays[i%len(delays)], fn)
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		e.Step()
		e.After(delays[i%len(delays)], fn)
		i++
	})
	if avg > scheduleFireAllocBudget {
		t.Fatalf("schedule→fire path allocates %.2f allocs/op, budget %d: node pooling regressed",
			avg, scheduleFireAllocBudget)
	}
}
