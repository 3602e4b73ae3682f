package host

import (
	"math"

	"vsched/internal/sim"
)

// Thread is one hardware thread (logical CPU) of the physical machine. Each
// thread owns a runqueue of entities; the hypervisor scheduler is fully
// distributed per thread (entities move between threads only by explicit
// Migrate, mirroring pinned-vCPU cloud deployments and keeping experiments
// controllable).
type Thread struct {
	host   *Host
	id     ThreadID
	socket int
	core   int
	slot   int
	// sibling is the SMT sibling thread (nil on single-thread cores), bound
	// once in New.
	sibling *Thread

	// speedFactor models per-thread frequency heterogeneity (host-side
	// frequency caps); experiments use it for asymmetric-capacity setups.
	speedFactor float64

	// minGran/wakeGran override the host scheduler granularities for this
	// thread (0 = use the host defaults). The paper adjusts exactly these
	// tunables (sched_min_granularity_ns, sched_wakeup_granularity_ns) to
	// dial in per-vCPU latency without changing capacity.
	minGran  sim.Duration
	wakeGran sim.Duration

	queue   []*Entity // runnable entities, excluding current
	current *Entity

	minVruntime int64
	lastSync    sim.Time
	curSpeed    float64
	sliceEv     sim.Event
	// sliceFn is onSlice, bound once in New so arming a slice allocates
	// nothing.
	sliceFn func()
}

// ID returns the thread's host-wide identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Socket returns the socket index.
func (t *Thread) Socket() int { return t.socket }

// Core returns the core index within the socket.
func (t *Thread) Core() int { return t.core }

// Slot returns the SMT slot index within the core.
func (t *Thread) Slot() int { return t.slot }

// Current returns the entity running on the thread, or nil.
func (t *Thread) Current() *Entity { return t.current }

// Sibling returns the SMT sibling thread, or nil on single-thread cores.
func (t *Thread) Sibling() *Thread { return t.sibling }

// SetSpeedFactor changes the thread's frequency factor (1.0 = nominal).
// Running entities see the change immediately.
func (t *Thread) SetSpeedFactor(f float64) {
	if f <= 0 {
		panic("host: non-positive speed factor")
	}
	t.speedFactor = f
	t.refreshSpeed()
}

// SpeedFactor returns the thread's frequency factor.
func (t *Thread) SpeedFactor() float64 { return t.speedFactor }

// SetGranularities overrides the scheduling granularities for this thread:
// minGran is the slice quantum, wakeGran the wakeup-preemption bar. Larger
// values stretch a waiting entity's inactive periods (higher vCPU latency)
// without changing its fair share. Zero keeps the host default.
func (t *Thread) SetGranularities(minGran, wakeGran sim.Duration) {
	t.minGran = minGran
	t.wakeGran = wakeGran
}

func (t *Thread) minGranularity() sim.Duration {
	if t.minGran > 0 {
		return t.minGran
	}
	return t.host.cfg.MinGranularity
}

func (t *Thread) wakeupGranularity() sim.Duration {
	if t.wakeGran > 0 {
		return t.wakeGran
	}
	return t.host.cfg.WakeupGranularity
}

func (t *Thread) effectiveSpeed() float64 {
	cfg := t.host.cfg
	s := cfg.BaseSpeed * t.speedFactor
	if sib := t.sibling; sib != nil && sib.current != nil {
		s *= cfg.SMTFactor
	}
	if cfg.TurboFactor > 1 && t.host.busyCores(t.socket) <= 1 {
		s *= cfg.TurboFactor
	}
	return s
}

func (t *Thread) refreshSpeed() {
	if t.current == nil {
		return
	}
	s := t.effectiveSpeed()
	if s == t.curSpeed {
		return
	}
	t.syncCurrent()
	t.curSpeed = s
	t.current.client.SpeedChanged(t.host.eng.Now(), s)
}

// syncCurrent charges the running entity's accounting up to now.
func (t *Thread) syncCurrent() {
	e := t.current
	if e == nil {
		return
	}
	now := t.host.eng.Now()
	delta := now.Sub(t.lastSync)
	t.lastSync = now
	if delta <= 0 {
		return
	}
	if !e.rt {
		e.vruntime += int64(delta) * DefaultWeight / e.weight
	}
	if e.quota > 0 {
		e.periodUsed += delta
	}
	t.updateMinVruntime()
}

func (t *Thread) updateMinVruntime() {
	min := int64(math.MaxInt64)
	if t.current != nil && !t.current.rt {
		min = t.current.vruntime
	}
	for _, e := range t.queue {
		if !e.rt && e.vruntime < min {
			min = e.vruntime
		}
	}
	if min != math.MaxInt64 && min > t.minVruntime {
		t.minVruntime = min
	}
}

// shouldPreempt reports whether a newly runnable wakee should immediately
// displace the running entity.
func (t *Thread) shouldPreempt(wakee, curr *Entity) bool {
	if wakee.rt && !curr.rt {
		return true
	}
	if !wakee.rt && curr.rt {
		return false
	}
	if wakee.rt && curr.rt {
		return false // FIFO among RT
	}
	// Linux's wakeup_gran scales the threshold by the wakee's weight
	// (calc_delta_fair on the waking entity).
	gran := int64(t.wakeupGranularity()) * DefaultWeight / wakee.weight
	return curr.vruntime-wakee.vruntime > gran
}

// enqueue adds a runnable entity to the queue and resolves preemption.
func (t *Thread) enqueue(e *Entity, allowPreempt bool) {
	t.queue = append(t.queue, e)
	t.updateMinVruntime()
	if t.current == nil {
		t.schedule()
		return
	}
	t.syncCurrent()
	if allowPreempt && t.shouldPreempt(e, t.current) {
		t.stopCurrent(Runnable)
		t.schedule()
		return
	}
	if !t.sliceEv.Active() {
		t.setSlice()
	}
}

// dequeue removes an entity from the runnable queue (it must not be
// current).
func (t *Thread) dequeue(e *Entity) {
	for i, q := range t.queue {
		if q == e {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			return
		}
	}
}

// pick removes and returns the entity that should run next: FIFO among RT
// entities first, then minimum vruntime (ties broken by creation order for
// determinism). Returns nil when the queue is empty.
func (t *Thread) pick() *Entity {
	best := -1
	for i, e := range t.queue {
		if best == -1 {
			best = i
			continue
		}
		b := t.queue[best]
		if better(e, b) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	e := t.queue[best]
	t.queue = append(t.queue[:best], t.queue[best+1:]...)
	return e
}

func better(a, b *Entity) bool {
	if a.rt != b.rt {
		return a.rt
	}
	if a.rt {
		return a.seq < b.seq // FIFO among RT
	}
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.seq < b.seq
}

// schedule dispatches the next entity if the thread is idle.
func (t *Thread) schedule() {
	if t.current != nil {
		return
	}
	e := t.pick()
	if e == nil {
		return
	}
	t.start(e)
}

func (t *Thread) start(e *Entity) {
	now := t.host.eng.Now()
	e.setState(Running)
	t.current = e
	t.lastSync = now
	flip := t.busyTransition()
	t.curSpeed = t.effectiveSpeed()
	e.client.Resumed(now, t.curSpeed)
	t.setSlice()
	t.notifyBusy(flip)
}

// stopCurrent halts the running entity, moving it to state `to`. If `to` is
// Runnable the entity is re-queued. The caller is responsible for invoking
// schedule() afterwards.
func (t *Thread) stopCurrent(to EntityState) {
	e := t.current
	if e == nil {
		return
	}
	t.syncCurrent()
	t.sliceEv.Cancel()
	t.sliceEv = sim.Event{}
	t.current = nil
	flip := t.busyTransition()
	e.setState(to)
	if to == Runnable {
		t.queue = append(t.queue, e)
	}
	e.client.Stopped(t.host.eng.Now())
	t.notifyBusy(flip)
}

// busyTransition updates the socket's busy-core counter after t.current
// changed and reports whether the change flipped the socket's turbo
// predicate (busyCores <= 1): a start that leaves two busy cores or a stop
// that leaves one. Only such a flip changes the speed of threads on other
// cores; a change that keeps the core busy via the sibling changes only
// the sibling's contention factor.
func (t *Thread) busyTransition() (turboFlip bool) {
	if sib := t.sibling; sib != nil && sib.current != nil {
		return false
	}
	n := &t.host.busyCoreCount[t.socket]
	if t.current != nil {
		*n++
		return *n == 2
	}
	*n--
	return *n == 1
}

// notifyBusy pushes the speed consequences of a busy-state change. A turbo
// flip retunes the whole socket (only when turbo is modelled at all). Any
// other change reaches at most the SMT sibling: a core-level change leaves
// the sibling idle by definition and every other core's speed untouched,
// and the started thread's own speed is already set in start.
func (t *Thread) notifyBusy(turboFlip bool) {
	if turboFlip {
		if t.host.cfg.TurboFactor > 1 {
			t.host.refreshSocketSpeeds(t.socket)
		}
		return
	}
	if sib := t.sibling; sib != nil {
		sib.refreshSpeed()
	}
}

// resliceCurrent recomputes the running entity's slice boundary (used after
// bandwidth changes).
func (t *Thread) resliceCurrent() {
	if t.current == nil {
		return
	}
	t.syncCurrent()
	t.setSlice()
}

// setSlice schedules the next scheduling decision point for the running
// entity: a granularity boundary when others are waiting, or the bandwidth
// quota boundary. With an empty queue and no quota, no event is needed — the
// entity runs until something happens.
func (t *Thread) setSlice() {
	t.sliceEv.Cancel()
	t.sliceEv = sim.Event{}
	e := t.current
	if e == nil {
		return
	}
	var end sim.Duration = -1
	if len(t.queue) > 0 {
		end = t.minGranularity()
	}
	if e.quota > 0 {
		left := e.quota - e.periodUsed
		if left < 0 {
			left = 0
		}
		if end < 0 || left < end {
			end = left
		}
	}
	if end < 0 {
		return
	}
	t.sliceEv = t.host.eng.After(end, t.sliceFn)
}

func (t *Thread) onSlice() {
	t.sliceEv = sim.Event{}
	e := t.current
	if e == nil {
		return
	}
	t.syncCurrent()
	if e.quota > 0 && e.periodUsed >= e.quota {
		t.stopCurrent(Throttled)
		t.schedule()
		return
	}
	if len(t.queue) == 0 {
		t.setSlice()
		return
	}
	// Peek at the best waiter; switch if it deserves the CPU.
	bestIdx := -1
	for i := range t.queue {
		if bestIdx == -1 || better(t.queue[i], t.queue[bestIdx]) {
			bestIdx = i
		}
	}
	best := t.queue[bestIdx]
	switchTo := false
	if best.rt && !e.rt {
		switchTo = true
	} else if !best.rt && e.rt {
		switchTo = false
	} else if best.rt && e.rt {
		switchTo = false // RT runs to completion (FIFO)
	} else {
		switchTo = best.vruntime < e.vruntime
	}
	if switchTo {
		t.stopCurrent(Runnable)
		t.schedule()
		return
	}
	t.setSlice()
}
