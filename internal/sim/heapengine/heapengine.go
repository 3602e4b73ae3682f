// Package heapengine preserves the original container/heap event queue that
// internal/sim shipped with before the timing-wheel engine replaced it. It is
// a reference implementation, kept for two jobs:
//
//   - the differential test suite runs it side by side with the wheel over
//     randomized schedule/cancel/run scripts and requires identical fire
//     order, clocks, and pending counts at every step;
//   - the schedule/fire/cancel benchmarks in internal/sim report heap-vs-wheel
//     cost per operation, so the speedup stays measured instead of assumed.
//
// The implementation is a verbatim copy of the pre-wheel engine (binary heap
// ordered by (time, seq), eager per-event allocation, threshold-triggered
// compaction of cancelled events); only the package name and the shared
// Time/Duration types differ. Do not optimize it: its value is being the
// simple, obviously-correct oracle.
package heapengine

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync/atomic"

	"vsched/internal/sim"
)

// Event is a scheduled callback. Events are created through Engine.At or
// Engine.After and may be cancelled before they fire.
type Event struct {
	at       sim.Time
	seq      uint64 // insertion order, breaks ties deterministically
	fn       func()
	eng      *Engine
	canceled bool
	fired    bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() {
	if ev == nil || ev.canceled || ev.fired {
		return
	}
	ev.canceled = true
	if ev.eng != nil {
		ev.eng.ncanceled++
		ev.eng.maybeCompact()
	}
}

// Active reports whether the event is still pending (not fired, not
// cancelled).
func (ev *Event) Active() bool { return ev != nil && !ev.canceled && !ev.fired }

// Time returns the virtual time at which the event is (or was) scheduled.
func (ev *Event) Time() sim.Time { return ev.at }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// compactThreshold is the minimum number of cancelled-but-undiscarded events
// before compaction is considered; below it the garbage is cheaper than the
// rebuild.
const compactThreshold = 64

// Engine is the original heap-based discrete-event simulator: a virtual
// clock plus an ordered queue of pending events. Not safe for concurrent use
// except Interrupt.
type Engine struct {
	now       sim.Time
	events    eventHeap
	seq       uint64
	rng       *rand.Rand
	seed      int64
	nfired    uint64
	ncanceled int // cancelled events still sitting in the heap
	stopped   atomic.Bool
}

// NewEngine returns an engine whose clock reads zero and whose random source
// is seeded with seed. The same seed always produces the same simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() sim.Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.nfired }

// Pending returns the number of pending (active) events: cancelled events
// that have not yet been discarded from the queue are not counted.
func (e *Engine) Pending() int { return len(e.events) - e.ncanceled }

// Interrupt asks the engine to stop executing events; it is the only method
// safe to call from another goroutine.
func (e *Engine) Interrupt() { e.stopped.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Engine) Interrupted() bool { return e.stopped.Load() }

// maybeCompact rebuilds the heap without cancelled events once they are both
// numerous and the majority of the queue.
func (e *Engine) maybeCompact() {
	if e.ncanceled < compactThreshold || e.ncanceled*2 < len(e.events) {
		return
	}
	live := e.events[:0]
	for _, ev := range e.events {
		if !ev.canceled {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = live
	e.ncanceled = 0
	heap.Init(&e.events)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics.
func (e *Engine) At(t sim.Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("heapengine: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn, eng: e}
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d sim.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("heapengine: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false if the queue is empty or the engine was interrupted.
func (e *Engine) Step() bool {
	if e.stopped.Load() {
		return false
	}
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.canceled {
			e.ncanceled--
			continue
		}
		e.now = ev.at
		ev.fired = true
		e.nfired++
		ev.fn()
		return true
	}
	return false
}

// Run executes events in order until the clock would pass `until`, then sets
// the clock to exactly `until`. Events scheduled at `until` itself are
// executed.
func (e *Engine) Run(until sim.Time) {
	for len(e.events) > 0 && !e.stopped.Load() {
		// Peek.
		next := e.events[0]
		if next.canceled {
			heap.Pop(&e.events)
			e.ncanceled--
			continue
		}
		if next.at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// RunFor advances the simulation by d virtual time.
func (e *Engine) RunFor(d sim.Duration) { e.Run(e.now.Add(d)) }

// Drain runs until the event queue is empty or limit events have fired.
// It returns the number of events executed.
func (e *Engine) Drain(limit uint64) uint64 {
	var n uint64
	for n < limit && e.Step() {
		n++
	}
	return n
}
