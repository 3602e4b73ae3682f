// Package guest models the inside of a cloud VM: vCPUs layered on host
// entities, tasks with realistic synchronisation behaviour, and a CFS-like
// kernel scheduler (runqueues ordered by virtual runtime, nice weights, the
// SCHED_IDLE class, per-entity load tracking, scheduler ticks with heartbeat
// semantics, CPU selection, idle and periodic load balancing over
// hierarchical scheduling domains, and cpuset-style allowed masks).
//
// The package deliberately separates two kinds of state:
//
//   - physics: whether a vCPU is really running on its core and how fast.
//     This drives task progress but is NOT readable by scheduling policy —
//     a real guest kernel has no such oracle.
//   - guest-visible state: steal-time counters, per-tick heartbeat stamps,
//     runqueue contents, PELT. vSched (internal/core) consumes only these.
package guest

import (
	"math"

	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// TaskState is the guest-scheduler state of a task.
type TaskState int

const (
	// TaskSleeping: blocked (timer, lock, condition, barrier).
	TaskSleeping TaskState = iota
	// TaskRunnable: on a runqueue, waiting to run.
	TaskRunnable
	// TaskRunning: the current task of some vCPU.
	TaskRunning
	// TaskExited: finished; never scheduled again.
	TaskExited
)

func (s TaskState) String() string {
	switch s {
	case TaskSleeping:
		return "sleeping"
	case TaskRunnable:
		return "runnable"
	case TaskRunning:
		return "running"
	case TaskExited:
		return "exited"
	}
	return "invalid"
}

// Weights of the scheduling policies, mirroring Linux: nice-0 tasks weigh
// 1024, SCHED_IDLE tasks weigh 3 (they only consume otherwise-idle cycles).
const (
	WeightNormal = 1024
	WeightIdle   = 3
)

// SegmentKind enumerates what a task does next.
type SegmentKind int

const (
	// SegCompute burns Cycles of CPU work.
	SegCompute SegmentKind = iota
	// SegSleep blocks for the segment's duration (timer wakeup).
	SegSleep
	// SegAcquire takes the Mutex, blocking if held.
	SegAcquire
	// SegAcquireSpin takes the Mutex, busy-spinning (consuming CPU) while held —
	// user-level spinlock behaviour, the LHP-prone pattern.
	SegAcquireSpin
	// SegRelease releases the Mutex and continues.
	SegRelease
	// SegCondWait blocks on the Cond until signalled.
	SegCondWait
	// SegCondSignal wakes one waiter of the Cond and continues.
	SegCondSignal
	// SegSemWait decrements the Semaphore, blocking at zero.
	SegSemWait
	// SegSemPost increments the Semaphore, waking one waiter, and continues.
	SegSemPost
	// SegBarrier blocks until all parties of the Barrier arrive.
	SegBarrier
	// SegMigrate moves the task itself to the target vCPU and continues (the
	// sched_setaffinity self-migration used by Fig. 3's migration mode).
	SegMigrate
	// SegExit terminates the task.
	SegExit
)

// Segment is one step of a task's program. It is four words, so a
// Behavior returns it in registers; build one with the constructors below.
type Segment struct {
	Kind   SegmentKind
	Cycles float64    // SegCompute; math.Inf(1) for run-forever tasks
	arg    int64      // SegSleep duration, SegMigrate target vCPU index
	sync   *syncState // the primitive of a lock, condition, semaphore or barrier segment
}

// Convenience segment constructors keep workload code terse.
func Compute(cycles float64) Segment { return Segment{Kind: SegCompute, Cycles: cycles} }
func ComputeForever() Segment        { return Segment{Kind: SegCompute, Cycles: math.Inf(1)} }
func Sleep(d sim.Duration) Segment   { return Segment{Kind: SegSleep, arg: int64(d)} }
func Acquire(m *Mutex) Segment       { return Segment{Kind: SegAcquire, sync: &m.syncState} }
func AcquireSpin(m *Mutex) Segment   { return Segment{Kind: SegAcquireSpin, sync: &m.syncState} }
func Release(m *Mutex) Segment       { return Segment{Kind: SegRelease, sync: &m.syncState} }
func Wait(c *Cond) Segment           { return Segment{Kind: SegCondWait, sync: &c.syncState} }
func Signal(c *Cond) Segment         { return Segment{Kind: SegCondSignal, sync: &c.syncState} }
func SemWait(s *Semaphore) Segment   { return Segment{Kind: SegSemWait, sync: &s.syncState} }
func SemPost(s *Semaphore) Segment   { return Segment{Kind: SegSemPost, sync: &s.syncState} }
func BarrierWait(b *Barrier) Segment { return Segment{Kind: SegBarrier, sync: &b.syncState} }
func MigrateTo(cpu int) Segment      { return Segment{Kind: SegMigrate, arg: int64(cpu)} }
func Exit() Segment                  { return Segment{Kind: SegExit} }

// Behavior produces a task's next program segment. Implementations are
// closures holding workload state; they are invoked each time the previous
// segment completes.
type Behavior func(now sim.Time) Segment

// Task is a schedulable guest thread.
type Task struct {
	vm   *VM
	id   int
	name string

	weight     int64
	idlePolicy bool // SCHED_IDLE
	// LatencySensitive marks tasks the operator declared latency-critical
	// (the paper's user-space hints via util-clamp / latency-nice). bvs
	// combines this with PELT smallness.
	LatencySensitive bool
	// footprint is the task's cache working set in MB; tasks sharing a
	// socket whose footprints exceed the LLC slow each other down.
	footprint float64

	state    TaskState
	cpu      *VCPU // runqueue the task is (or was last) on
	vruntime int64
	seq      int

	group    *CGroup
	affinity int // pinned vCPU index, or -1
	startOn  int // first-wakeup vCPU index, or -1
	// sliceReq is the EEVDF request size (latency preference); 0 = default.
	sliceReq int64

	behavior Behavior
	// remaining cycles in the in-progress compute segment
	remaining float64
	// spinOn marks a task burning CPU while logically waiting on a spinlock
	// or spin-barrier; its compute is aborted when the resource is granted.
	spinOn *syncState

	// Execution accounting (guest-visible; a kernel tracks all of these).
	enqueuedAt    sim.Time     // when it last became runnable
	lastMigrate   sim.Time     // when the balancer last moved it (rate limit)
	runStart      sim.Time     // when it last became current
	sliceStart    sim.Time     // when it last got on CPU (for preemption)
	lastRan       sim.Time     // cache-hot reference for load balancing
	totalRun      sim.Duration // cumulative on-CPU-and-active time
	totalQueueLat sim.Duration // cumulative runnable->running latency
	wakeups       uint64

	// PELT utilisation tracking, 0..1024 scale.
	util     float64
	lastPELT sim.Time

	// commDebt is extra work (cycles) charged by cross-socket communication:
	// cache lines the task must pull before making progress. It is paid the
	// next time the task gets on CPU.
	commDebt float64

	// sleepFn (the SegSleep timer) and wakeFn (the wakeup IRQ it raises)
	// are bound once in Spawn.
	sleepFn, wakeFn func()

	exited bool
	OnExit func(now sim.Time)
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// SetIdlePolicy moves the task into or out of SCHED_IDLE at runtime
// (sched_setscheduler). vcap's probers switch between best-effort (light
// sampling) and elevated priority (heavy sampling) this way.
func (t *Task) SetIdlePolicy(idle bool, weight int64) {
	if t.idlePolicy != idle {
		into := int64(0)
		if idle {
			into = 1
		}
		t.vm.tr.Emit(t.vm.eng.Now(), vtrace.KindIdlePolicy, t.name, int64(t.id), into, 0)
	}
	t.idlePolicy = idle
	if weight > 0 {
		t.weight = weight
	} else if idle {
		t.weight = WeightIdle
	} else {
		t.weight = WeightNormal
	}
}

// Group returns the task's cgroup.
func (t *Task) Group() *CGroup { return t.group }

// ID returns the VM-unique task id.
func (t *Task) ID() int { return t.id }

// State returns the scheduler state.
func (t *Task) State() TaskState { return t.state }

// CPU returns the vCPU whose runqueue the task is (or was last) on.
func (t *Task) CPU() *VCPU { return t.cpu }

// IsIdlePolicy reports whether the task is SCHED_IDLE.
func (t *Task) IsIdlePolicy() bool { return t.idlePolicy }

// Util returns the task's PELT utilisation estimate (0..1024), decayed to
// the current instant.
func (t *Task) Util() float64 {
	elapsed := t.vm.eng.Now().Sub(t.lastPELT)
	if elapsed <= 0 {
		return t.util
	}
	return t.util * t.vm.decay.factor(elapsed)
}

// TotalRun returns cumulative time the task spent executing while its vCPU
// was really active.
func (t *Task) TotalRun() sim.Duration { return t.totalRun }

// RunStart returns when the task last became the current task of a vCPU.
func (t *Task) RunStart() sim.Time { return t.runStart }

// TotalQueueLatency returns the cumulative time the task spent waiting on
// runqueues before being scheduled.
func (t *Task) TotalQueueLatency() sim.Duration { return t.totalQueueLat }

// Wakeups returns how many times the task became runnable.
func (t *Task) Wakeups() uint64 { return t.wakeups }

// Exited reports whether the task has terminated.
func (t *Task) Exited() bool { return t.exited }

// pelt constants: Linux's util halves every 32ms of decay.
const peltTau = 32 * sim.Millisecond

// decayBits sizes the decay memo at 2^decayBits slots.
const decayBits = 6

// decayMemo is a direct-mapped cache of the PELT decay factor
// 2^(−elapsed/peltTau), keyed by the exact elapsed duration. A miss calls
// math.Exp2, so every factor is bit-identical to computing it afresh; the
// hits come from the few intervals that recur (the 1 ms tick above all).
// Each VM owns one: VMs run on parallel goroutines.
type decayMemo [1 << decayBits]struct {
	elapsed sim.Duration
	factor  float64
}

// reset fills every slot with the true pair for elapsed 0, so an empty slot
// can never answer a lookup wrongly.
func (m *decayMemo) reset() {
	for i := range m {
		m[i].elapsed, m[i].factor = 0, 1
	}
}

// decaySlot maps elapsed to its memo slot. Fibonacci hashing spreads nearby
// and round durations over the slots.
func decaySlot(elapsed sim.Duration) int {
	return int(uint64(elapsed) * 0x9E3779B97F4A7C15 >> (64 - decayBits))
}

// factor returns 2^(−elapsed/peltTau).
func (m *decayMemo) factor(elapsed sim.Duration) float64 {
	e := &m[decaySlot(elapsed)]
	if e.elapsed != elapsed {
		e.elapsed, e.factor = elapsed, math.Exp2(-float64(elapsed)/float64(peltTau))
	}
	return e.factor
}

// onSleepTimer fires when a SegSleep ends: the wakeup is an interrupt on
// the task's last vCPU, delivered once that vCPU really runs.
func (t *Task) onSleepTimer() { t.vm.DeliverIRQ(t.cpu, t.wakeFn) }

// onWakeIRQ is the sleep timer's interrupt handler.
func (t *Task) onWakeIRQ() { t.vm.wakeTask(t, nil) }

// consumeCommDebt folds accumulated communication cost into the task's
// in-progress compute segment.
func (t *Task) consumeCommDebt() {
	if t.commDebt > 0 && !math.IsInf(t.remaining, 1) {
		t.remaining += t.commDebt
		t.commDebt = 0
	}
}

// updatePELT folds an interval ending now into the utilisation average.
// ranDelta is how much of the interval the task actually executed.
func (t *Task) updatePELT(now sim.Time, ranDelta sim.Duration) {
	elapsed := now.Sub(t.lastPELT)
	if elapsed <= 0 {
		return
	}
	d := t.vm.decay.factor(elapsed)
	frac := float64(ranDelta) / float64(elapsed)
	if frac > 1 {
		frac = 1
	}
	t.util = float64(t.util*d) + float64(1024*(1-d)*frac)
	t.lastPELT = now
}
