package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
)

// The event queue is a hierarchical timing wheel: wheelLevels rings of
// wheelSlots slots each, where a level-l slot spans 2^(wheelBits*l) ticks of
// 2^tickShift nanoseconds. Near-future events — the CFS ticks, time slices,
// and probe heartbeats that dominate every scenario — land in level 0 and
// are scheduled and fired in O(1) amortized; farther events land in a
// coarser ring and cascade toward level 0 as the cursor approaches them.
// Anything beyond the wheel's horizon (2^(wheelBits*wheelLevels) ticks,
// about 68 simulated seconds) waits in a conventional binary heap and is
// promoted into the wheel when it comes into range.
//
// Slots keep events in raw insertion order. When the cursor reaches a slot,
// its contents are moved into the "ready" list, kept sorted by (time, seq),
// which restores the exact global fire order — including the FIFO tie-break
// for same-timestamp events — that the original heap engine produced. The
// ready list stays small (one slot's worth of events plus any same-tick
// arrivals), and since one slot spans a single tick, almost every insert is
// an append.
//
// The queue stores no pointers. Every scheduled event is a node in one
// engine-owned arena, addressed by int32; wheel slots are intrusive FIFOs
// threaded through node.next, and the ready list, the overflow heap and the
// free list hold indices. Moving an event between them is a plain integer
// store — no garbage-collector write barrier — and a new engine grows no
// per-slot slices. The arena can grow on any schedule, so no code holds
// &e.nodes[i] across a call that can schedule.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256 slots per ring
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	tickShift   = 12 // 4.096µs per tick: a 1ms CFS tick is ~244 ticks, level 0
)

// maxTime is the limit that never binds; Step and Drain run against it.
const maxTime = Time(1<<63 - 1)

// nilNode terminates a slot FIFO and stands for "no event" in next.
const nilNode = -1

// node is the pooled representation of a scheduled event. Nodes are owned by
// the engine: after an event fires or its cancellation is collected, the
// node's generation is bumped and its index returns to the free list for
// reuse, so the steady-state schedule→fire path allocates nothing. Handles
// (Event) carry the generation they were issued with; a stale handle — one
// whose node has been recycled — compares unequal and becomes inert rather
// than touching the event that now occupies the node. The callback lives in
// the parallel fns slice, so the node arena itself holds no pointers.
type node struct {
	at       Time
	seq      uint64 // insertion order, breaks ties deterministically
	next     int32  // next node of the same wheel slot, or nilNode
	gen      uint32
	canceled bool
}

// slotList is one wheel slot: a FIFO of nodes threaded through node.next.
// The slot's bitmap bit, not head, says whether it is occupied.
type slotList struct{ head, tail int32 }

// Event is a cancellable handle to a scheduled callback, issued by Engine.At
// and Engine.After. It is a small value, not a pointer: copies are fine, and
// the zero Event is valid and inert (not Active, Cancel is a no-op) — it
// replaces the nil *Event of the old heap engine.
type Event struct {
	e   *Engine
	at  Time
	i   int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event — or the zero Event — is a no-op. Cancellation is
// lazy: the node stays parked in its wheel slot and is collected when the
// cursor sweeps past, so Cancel never restructures the queue.
func (ev Event) Cancel() {
	e := ev.e
	if e == nil {
		return
	}
	n := &e.nodes[ev.i]
	if n.gen != ev.gen || n.canceled {
		return
	}
	n.canceled = true
	e.live--
}

// Active reports whether the event is still pending (not fired, not
// cancelled).
func (ev Event) Active() bool {
	if ev.e == nil {
		return false
	}
	n := &ev.e.nodes[ev.i]
	return n.gen == ev.gen && !n.canceled
}

// Time returns the virtual time at which the event is (or was) scheduled.
func (ev Event) Time() Time { return ev.at }

// less is the global fire order: time, then insertion sequence.
func (e *Engine) less(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	if na.at != nb.at {
		return na.at < nb.at
	}
	return na.seq < nb.seq
}

// pushOverflow and popOverflow keep the overflow as a hand-rolled binary
// min-heap of node indices. container/heap would box every push and pop
// through interface{} method calls; the sift loops are inlined here.
func (e *Engine) pushOverflow(i int32) {
	q := append(e.overflow, i)
	j := len(q) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !e.less(q[j], q[p]) {
			break
		}
		q[j], q[p] = q[p], q[j]
		j = p
	}
	e.overflow = q
}

func (e *Engine) popOverflow() int32 {
	q := e.overflow
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	j := 0
	for {
		c := 2*j + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && e.less(q[r], q[c]) {
			c = r
		}
		if !e.less(q[c], q[j]) {
			break
		}
		q[j], q[c] = q[c], q[j]
		j = c
	}
	e.overflow = q
	return top
}

// pushReady inserts node i into the ready list, keeping e.ready[e.rhead:]
// sorted by fire order. The search runs from the tail, where nearly every
// insert lands; a full backing array is compacted over the consumed head
// before append would grow it.
func (e *Engine) pushReady(i int32) {
	if len(e.ready) == cap(e.ready) && e.rhead > 0 {
		e.ready = e.ready[:copy(e.ready, e.ready[e.rhead:])]
		e.rhead = 0
	}
	e.ready = append(e.ready, i)
	r := e.ready
	j := len(r) - 1
	if j > e.rhead && e.less(i, r[j-1]) {
		lo, hi := e.rhead, j-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if e.less(i, r[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(r[lo+1:], r[lo:j])
		r[lo] = i
	}
}

// popReady consumes the head of the ready list. An emptied list rewinds to
// the start of its backing array.
func (e *Engine) popReady() {
	e.rhead++
	if e.rhead == len(e.ready) {
		e.ready, e.rhead = e.ready[:0], 0
	}
}

// Engine is a discrete-event simulator: a virtual clock plus an ordered
// queue of pending events. It is not safe for concurrent use; the entire
// simulation runs on one goroutine, which is what makes it deterministic.
// The single exception is Interrupt, which may be called from another
// goroutine to stop a runaway simulation.
type Engine struct {
	now  Time
	cur  int64 // wheel cursor, in ticks; every slot strictly before it is empty
	seq  uint64
	rng  *rand.Rand
	seed int64

	nfired uint64
	live   int // scheduled and neither fired nor cancelled

	nodes []node   // the arena: every node ever minted, addressed by index
	fns   []func() // fns[i] is node i's callback
	free  []int32  // recycled node indices

	wheelCount int              // nodes resident in wheel slots, cancelled included
	levelCount [wheelLevels]int // ditto, per level — lets the cursor skip dead rings
	slots      [wheelLevels][wheelSlots]slotList
	bitmap     [wheelLevels][wheelSlots / 64]uint64 // occupied-slot index per ring

	ready    []int32 // ready[rhead:]: events at ticks the cursor has reached, in fire order
	rhead    int
	overflow []int32 // min-heap of events beyond the wheel horizon

	stopped atomic.Bool
}

// NewEngine returns an engine whose clock reads zero and whose random source
// is seeded with seed. The same seed always produces the same simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the engine was created with. Components that need a
// private random stream — so their draws do not depend on how other
// components interleave with the shared source — derive one from this.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the total number of events executed so far. Useful for
// performance reporting in benchmarks.
func (e *Engine) Fired() uint64 { return e.nfired }

// Pending returns the number of pending (active) events: cancelled events
// that have not yet been collected from the wheel are not counted.
func (e *Engine) Pending() int { return e.live }

// WheelStats is a point-in-time census of the event queue, for
// self-observability: where pending events sit (wheel levels, overflow heap,
// ready list), how many slots are occupied, and how deep the node pool runs.
// It is a pure function of simulation state, so sampling it is deterministic.
type WheelStats struct {
	// Pending mirrors Engine.Pending: scheduled, neither fired nor cancelled.
	Pending int
	// WheelResident counts nodes parked in wheel slots, including
	// lazily-cancelled ones not yet collected.
	WheelResident int
	// Levels breaks WheelResident down per wheel level.
	Levels [wheelLevels]int
	// OccupiedSlots counts wheel slots holding at least one node.
	OccupiedSlots int
	// Overflow is the depth of the beyond-horizon heap.
	Overflow int
	// Ready is the depth of the due-now ordering list.
	Ready int
	// FreeNodes is the size of the node recycling pool.
	FreeNodes int
}

// WheelStats returns the event queue census at this instant.
func (e *Engine) WheelStats() WheelStats {
	s := WheelStats{
		Pending:       e.live,
		WheelResident: e.wheelCount,
		Levels:        e.levelCount,
		Overflow:      len(e.overflow),
		Ready:         len(e.ready) - e.rhead,
		FreeNodes:     len(e.free),
	}
	for l := 0; l < wheelLevels; l++ {
		for _, w := range e.bitmap[l] {
			s.OccupiedSlots += bits.OnesCount64(w)
		}
	}
	return s
}

// Interrupt asks the engine to stop executing events: every subsequent Step,
// Run, RunFor, or Drain call returns without firing anything. It is the only
// Engine method safe to call from another goroutine — the harness uses it to
// cancel a trial that overran its wall-clock budget. Interrupting does not
// corrupt engine state; it only freezes the simulation.
func (e *Engine) Interrupt() { e.stopped.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Engine) Interrupted() bool { return e.stopped.Load() }

// alloc takes a node index from the free list, or mints one.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.nodes = append(e.nodes, node{})
	e.fns = append(e.fns, nil)
	return int32(len(e.nodes) - 1)
}

// recycle invalidates every outstanding handle to node i (by bumping the
// generation) and returns it to the free list.
func (e *Engine) recycle(i int32) {
	n := &e.nodes[i]
	n.gen++
	n.canceled = false
	e.fns[i] = nil
	e.free = append(e.free, i)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	i := e.alloc()
	n := &e.nodes[i]
	n.at, n.seq = t, e.seq
	gen := n.gen
	e.fns[i] = fn
	e.live++
	e.place(i)
	return Event{e: e, at: t, i: i, gen: gen}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// place files node i into the ready list, a wheel slot, or the overflow
// heap, depending on how far its tick is from the cursor. The level test is
// on slot-index distance, not raw tick delta: an event must always land in a
// slot the cursor has not yet passed at that level, or it would only be
// reached after a full ring revolution.
func (e *Engine) place(i int32) {
	tick := int64(e.nodes[i].at) >> tickShift
	if tick <= e.cur {
		// The cursor has already reached (or passed) this tick — possible
		// both for events scheduled at the current instant and after the
		// cursor ran ahead of the clock chasing a far-future event. The
		// ready list keeps them in exact fire order either way.
		e.pushReady(i)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		if (tick>>shift)-(e.cur>>shift) < wheelSlots {
			slot := int((tick >> shift) & wheelMask)
			e.nodes[i].next = nilNode
			s := &e.slots[l][slot]
			bit := uint64(1) << uint(slot&63)
			if w := &e.bitmap[l][slot>>6]; *w&bit == 0 {
				*w |= bit
				s.head = i
			} else {
				e.nodes[s.tail].next = i
			}
			s.tail = i
			e.wheelCount++
			e.levelCount[l]++
			return
		}
	}
	e.pushOverflow(i)
}

// nextSlot returns the first occupied slot index >= from in ring l, or -1 if
// the rest of the ring is empty.
func (e *Engine) nextSlot(l, from int) int {
	if from >= wheelSlots {
		return -1
	}
	w := from >> 6
	word := e.bitmap[l][w] &^ (1<<uint(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= wheelSlots/64 {
			return -1
		}
		word = e.bitmap[l][w]
	}
}

// dumpSlot0 moves a level-0 slot's contents into the ready list, collecting
// cancelled nodes on the way, and marks the slot empty.
func (e *Engine) dumpSlot0(slot int) {
	e.bitmap[0][slot>>6] &^= 1 << uint(slot&63)
	for i := e.slots[0][slot].head; i != nilNode; {
		n := &e.nodes[i]
		next := n.next
		e.wheelCount--
		e.levelCount[0]--
		if n.canceled {
			e.recycle(i)
		} else {
			e.pushReady(i)
		}
		i = next
	}
}

// cascade redistributes a level-l slot whose span the cursor has entered:
// every node lands in a finer ring (or the ready list, if its tick is the
// cursor's own), and cancelled nodes are collected. Correctness does not
// depend on when cascades happen — only that a slot is cascaded before the
// cursor would pass an event inside it.
func (e *Engine) cascade(l, slot int) {
	e.bitmap[l][slot>>6] &^= 1 << uint(slot&63)
	for i := e.slots[l][slot].head; i != nilNode; {
		n := &e.nodes[i]
		next := n.next
		e.wheelCount--
		e.levelCount[l]--
		if n.canceled {
			e.recycle(i)
		} else {
			e.place(i)
		}
		i = next
	}
}

// promoteOverflow drains overflow-heap events whose ticks have come inside
// the wheel horizon. The overflow invariant — every overflow event is later
// than every wheel event — makes the in-range test a cheap peek: only the
// heap minimum can ever be due for promotion.
func (e *Engine) promoteOverflow() {
	const topShift = uint(wheelBits * (wheelLevels - 1))
	for len(e.overflow) > 0 {
		i := e.overflow[0]
		n := &e.nodes[i]
		if n.canceled {
			e.popOverflow()
			e.recycle(i)
			continue
		}
		if (int64(n.at)>>tickShift>>topShift)-(e.cur>>topShift) >= wheelSlots {
			return
		}
		e.popOverflow()
		e.place(i)
	}
}

// advance moves the cursor to the next occupied point of the wheel — the
// nearest slot at the finest occupied level — dumping or cascading what it
// finds, but never beyond limitTick. It reports whether it made progress;
// false means no wheel event can fire at or before the limit. Rings whose
// levelCount is zero are skipped wholesale, so sparse stretches cost bitmap
// scans, not per-tick iteration; the one-window fallbacks below only run
// when a finer ring still holds events that wrapped past its window edge.
func (e *Engine) advance(limitTick int64) bool {
	e.promoteOverflow()
	// Level 0: nearest occupied slot before the window edge.
	if e.levelCount[0] > 0 {
		if s := e.nextSlot(0, int(e.cur&wheelMask)+1); s >= 0 {
			tick := (e.cur &^ wheelMask) | int64(s)
			if tick > limitTick {
				return false
			}
			e.cur = tick
			e.dumpSlot0(s)
			return true
		}
		// Level 0 still holds events, but they wrapped past the window
		// edge: cross exactly one window so their slots come back into
		// scan range. The level-1 (and, on a ring wrap, level-2) slot that
		// spans the new window must cascade first — its contents belong to
		// the same window.
		return e.stepWindow(limitTick)
	}
	p1 := e.cur >> wheelBits
	if s := e.nextSlot(1, int(p1&wheelMask)+1); s >= 0 {
		tick := ((p1 &^ wheelMask) | int64(s)) << wheelBits
		if tick > limitTick {
			return false
		}
		e.cur = tick
		e.cascade(1, s)
		return true
	}
	if e.levelCount[1] > 0 {
		// Wrapped level-1 slots: cross one level-2 boundary to unwrap them.
		p2 := e.cur >> (2 * wheelBits)
		tick := (p2 + 1) << (2 * wheelBits)
		if tick > limitTick {
			return false
		}
		e.cur = tick
		if s := int((p2 + 1) & wheelMask); e.bitmap[2][s>>6]&(1<<uint(s&63)) != 0 {
			e.cascade(2, s)
		}
		if e.bitmap[1][0]&1 != 0 {
			e.cascade(1, 0)
		}
		return true
	}
	p2 := e.cur >> (2 * wheelBits)
	if s := e.nextSlot(2, int(p2&wheelMask)+1); s >= 0 {
		tick := ((p2 &^ wheelMask) | int64(s)) << (2 * wheelBits)
		if tick > limitTick {
			return false
		}
		e.cur = tick
		e.cascade(2, s)
		return true
	}
	if e.levelCount[2] > 0 {
		// Wrapped level-2 slots: cross the top-ring boundary.
		p3 := e.cur >> (3 * wheelBits)
		tick := (p3 + 1) << (3 * wheelBits)
		if tick > limitTick {
			return false
		}
		e.cur = tick
		if e.bitmap[2][0]&1 != 0 {
			e.cascade(2, 0)
		}
		return true
	}
	// The wheel is empty; the caller falls back to the overflow heap.
	return false
}

// stepWindow crosses exactly one level-0 window boundary, cascading the
// coarser slots that span the window the cursor enters.
func (e *Engine) stepWindow(limitTick int64) bool {
	p1 := e.cur>>wheelBits + 1
	tick := p1 << wheelBits
	if tick > limitTick {
		return false
	}
	e.cur = tick
	if p1&wheelMask == 0 {
		// Level-1 ring wrap: the level-2 slot spanning the new window
		// cascades first, possibly refilling level-1 slot 0.
		if s := int((p1 >> wheelBits) & wheelMask); e.bitmap[2][s>>6]&(1<<uint(s&63)) != 0 {
			e.cascade(2, s)
		}
	}
	if s := int(p1 & wheelMask); e.bitmap[1][s>>6]&(1<<uint(s&63)) != 0 {
		e.cascade(1, s)
	}
	if e.bitmap[0][0]&1 != 0 {
		e.dumpSlot0(0)
	}
	return true
}

// next pops the globally earliest pending event, provided it fires at or
// before limit; it returns nilNode otherwise. The cursor advances only as
// far as the earlier of that event and the limit, so a Run that stops short
// leaves the wheel positioned for cheap rescheduling.
func (e *Engine) next(limit Time) int32 {
	limitTick := int64(limit) >> tickShift
	for {
		for e.rhead < len(e.ready) {
			i := e.ready[e.rhead]
			n := &e.nodes[i]
			if n.canceled {
				e.popReady()
				e.recycle(i)
				continue
			}
			if n.at > limit {
				return nilNode
			}
			e.popReady()
			return i
		}
		if e.wheelCount == 0 {
			for len(e.overflow) > 0 && e.nodes[e.overflow[0]].canceled {
				e.recycle(e.popOverflow())
			}
			if len(e.overflow) == 0 || e.nodes[e.overflow[0]].at > limit {
				return nilNode
			}
			// Re-base the cursor at the overflow minimum; promotion then
			// pulls it (and everything else newly in range) into the wheel
			// or the ready list.
			e.cur = int64(e.nodes[e.overflow[0]].at) >> tickShift
			e.promoteOverflow()
			continue
		}
		if !e.advance(limitTick) {
			return nilNode
		}
	}
}

// fire executes node i: clock forward, node recycled, callback run. The node
// is recycled before the callback so the callback can reschedule without
// growing the pool, and so the event's own handle is already inert (not
// Active) while it runs.
func (e *Engine) fire(i int32) {
	e.now = e.nodes[i].at
	fn := e.fns[i]
	e.live--
	e.recycle(i)
	e.nfired++
	fn()
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false if the queue is empty or the engine was interrupted.
func (e *Engine) Step() bool {
	if e.stopped.Load() {
		return false
	}
	i := e.next(maxTime)
	if i == nilNode {
		return false
	}
	e.fire(i)
	return true
}

// Run executes events in order until the clock would pass `until`, then sets
// the clock to exactly `until`. Events scheduled at `until` itself are
// executed.
func (e *Engine) Run(until Time) {
	for !e.stopped.Load() {
		i := e.next(until)
		if i == nilNode {
			break
		}
		e.fire(i)
	}
	if e.now < until {
		e.now = until
	}
}

// RunFor advances the simulation by d virtual time. A negative d is a sign
// error upstream, so it panics, as After does for a negative delay.
func (e *Engine) RunFor(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative run duration %v", d))
	}
	e.Run(e.now.Add(d))
}

// Drain runs until the event queue is empty or limit events have fired.
// It returns the number of events executed.
func (e *Engine) Drain(limit uint64) uint64 {
	var n uint64
	for n < limit && e.Step() {
		n++
	}
	return n
}
