package guest

import (
	"math"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// VCPU is a virtual CPU: a guest runqueue layered on a host entity.
//
// Fields fall into two classes. Physics fields (hostActive, speed, execMark)
// mirror what the hardware is really doing and drive task progress; guest
// scheduling policy never reads them. Guest-visible fields (steal counter,
// heartbeat stamp, runqueue contents, published capacity/latency) are what a
// real guest kernel could observe, and are the only inputs to policy.
type VCPU struct {
	vm  *VM
	id  int
	ent *host.Entity

	// --- physics (not visible to scheduling policy) ---
	hostActive bool
	speed      float64  // cycles per ns while active
	execMark   sim.Time // last integration point for curr's progress
	compEv     sim.Event
	// lastSpeedMicro is the last KindVCPUSpeed value emitted, so redundant
	// resumes at an unchanged speed don't flood the trace ring.
	lastSpeedMicro int64

	// --- guest scheduler state ---
	curr        *Task
	rq          []*Task
	minVruntime int64
	needResched bool

	// --- tick machinery ---
	pendingTick bool

	// --- guest-visible kernel counters (vact's kernel instrumentation) ---
	lastTickStamp  sim.Time
	stealAtTick    sim.Duration
	preemptCount   uint64
	becameActiveAt sim.Time
	// cfsCapacity is the vanilla kernel's flawed capacity estimate: steal
	// fraction observed at ticks while busy, with no information while idle.
	cfsCapacity float64

	// --- values published by vSched's kernel module (0 = unset) ---
	pubCapacity  int64
	pubLatency   sim.Duration
	pubAvgActive sim.Duration

	// pendingIRQ holds interrupt work (timer expiries, external arrivals)
	// that must wait until the vCPU is next really running. spareIRQ is the
	// drained backing array, swapped back in on the next drain.
	pendingIRQ []func()
	spareIRQ   []func()

	// Engine callbacks, bound once in NewVM: a method value passed to After
	// allocates a fresh closure every time it is evaluated.
	completeFn, tickFn, resumeFn, reschedFn func()

	// idleSince records when the vCPU last entered the guest idle loop;
	// valid only while GuestIdle() holds.
	idleSince sim.Time

	// cyclesExec counts cycles actually executed on this vCPU (all tasks,
	// including probers) — the "total cycles" cost metric of Fig. 20.
	cyclesExec float64

	// llcF is the cached LLC-contention speed factor (1.0 = no pressure);
	// llcSocket remembers which socket's footprint the current task was
	// charged to (the vCPU may be repinned while a task is installed).
	llcF      float64
	llcSocket int
}

// llcFactor returns the vCPU's current LLC-contention speed factor.
func (v *VCPU) llcFactor() float64 {
	if v.llcF == 0 {
		return 1
	}
	return v.llcF
}

// refreshLLC recomputes the cached LLC factor from the socket's installed
// footprint. Called at install time and each tick: millisecond-scale
// staleness is acceptable for a cache-capacity effect.
func (v *VCPU) refreshLLC() {
	p := v.vm.params
	if p.LLCSizeMB <= 0 {
		v.llcF = 1
		return
	}
	load := v.vm.llcLoad[v.ent.Thread().Socket()]
	if load <= p.LLCSizeMB {
		v.llcF = 1
		return
	}
	v.llcF = math.Sqrt(p.LLCSizeMB / load)
}

// uninstallCurr detaches the current task, keeping the socket footprint
// accounting straight. It does not change the task's state.
func (v *VCPU) uninstallCurr() {
	t := v.curr
	if t == nil {
		return
	}
	if t.footprint > 0 {
		v.vm.llcLoad[v.llcSocket] -= t.footprint
	}
	// A2 tells attribution consumers whether the task left the CPU still
	// wanting it (preemption, yield, migration pull) or stopped needing it
	// (block, exit). Every caller that blocks/exits sets the task state
	// before uninstalling; the still-runnable paths leave it Running or set
	// Runnable first.
	still := int64(0)
	if t.state == TaskRunning || t.state == TaskRunnable {
		still = 1
	}
	v.vm.tr.Emit(v.vm.eng.Now(), vtrace.KindTaskOff, t.name, int64(v.id), int64(t.id), still)
	v.curr = nil
	v.syncMasks()
}

// syncMasks re-derives v's bits in the VM's idle and overloaded masks from
// curr and rq. Every site that changes either calls it at once.
func (v *VCPU) syncMasks() {
	v.vm.idle.set(v.id, v.GuestIdle())
	v.vm.overloaded.set(v.id, len(v.rq) >= 1 && v.nrRunning() >= 2)
}

// IdleSince returns when the vCPU entered the guest idle loop. Only
// meaningful while GuestIdle() is true.
func (v *VCPU) IdleSince() sim.Time { return v.idleSince }

// ID returns the vCPU index within its VM.
func (v *VCPU) ID() int { return v.id }

// VM returns the owning VM.
func (v *VCPU) VM() *VM { return v.vm }

// Entity exposes the underlying host entity. Experiments use it for ground
// truth and host-side manipulation; guest policy code must restrict itself
// to the guest-visible accessors below.
func (v *VCPU) Entity() *host.Entity { return v.ent }

// --- guest-visible accessors (legitimate reads for vSched) ---

// Steal returns the paravirtual steal-time counter.
func (v *VCPU) Steal() sim.Duration { return v.ent.Steal() }

// Heartbeat returns the timestamp the vCPU recorded at its most recent
// scheduler tick. A stale heartbeat on a busy vCPU means it is preempted.
func (v *VCPU) Heartbeat() sim.Time { return v.lastTickStamp }

// PreemptCount returns vact's kernel counter of detected steal-time jumps.
func (v *VCPU) PreemptCount() uint64 { return v.preemptCount }

// ResetPreemptCount zeroes the steal-jump counter (done by vact's user-space
// part at the end of each sampling period) and returns the prior value.
func (v *VCPU) ResetPreemptCount() uint64 {
	c := v.preemptCount
	v.preemptCount = 0
	return c
}

// BecameActiveAt returns the kernel's tick-granularity estimate of when the
// vCPU last transitioned inactive->active (the tick that observed a steal
// jump).
func (v *VCPU) BecameActiveAt() sim.Time { return v.becameActiveAt }

// GuestIdle reports whether the vCPU has no current task and an empty
// runqueue (the guest idle loop).
func (v *VCPU) GuestIdle() bool { return v.curr == nil && len(v.rq) == 0 }

// RunqueueLen returns the number of runnable tasks waiting (excluding curr).
func (v *VCPU) RunqueueLen() int { return len(v.rq) }

// Curr returns the task currently installed on the vCPU, or nil.
func (v *VCPU) Curr() *Task { return v.curr }

// OnlyIdlePolicy reports whether every installed task (curr and queue) is
// SCHED_IDLE — i.e. the vCPU serves only best-effort work right now.
func (v *VCPU) OnlyIdlePolicy() bool {
	if v.curr == nil && len(v.rq) == 0 {
		return false
	}
	if v.curr != nil && !v.curr.idlePolicy {
		return false
	}
	for _, t := range v.rq {
		if !t.idlePolicy {
			return false
		}
	}
	return true
}

// PublishCapacity installs a probed capacity value (vcap -> kernel module).
// Pass 0 to revert to the vanilla estimate.
func (v *VCPU) PublishCapacity(c int64) {
	v.pubCapacity = c
	if c > v.vm.capCeil {
		v.vm.capCeil = c
	}
}

// PublishActivity installs probed activity metrics (vact -> kernel module):
// the average inactive period (vCPU latency) and average active period.
func (v *VCPU) PublishActivity(latency, avgActive sim.Duration) {
	v.pubLatency = latency
	v.pubAvgActive = avgActive
}

// Latency returns the published vCPU latency (average inactive period);
// zero if never published.
func (v *VCPU) Latency() sim.Duration { return v.pubLatency }

// AvgActive returns the published average active period.
func (v *VCPU) AvgActive() sim.Duration { return v.pubAvgActive }

// Capacity returns the capacity estimate the scheduler believes: the value
// published by vcap when available, otherwise the vanilla CFS estimate —
// which reports full capacity for idle vCPUs because steal is only observed
// while busy (the exact flaw Fig. 11 demonstrates).
func (v *VCPU) Capacity() int64 {
	if v.pubCapacity > 0 {
		return v.pubCapacity
	}
	if v.GuestIdle() {
		return 1024
	}
	return int64(v.cfsCapacity)
}

// HasAccurateCapacity reports whether a probed capacity has been published.
func (v *VCPU) HasAccurateCapacity() bool { return v.pubCapacity > 0 }

// --- host.Client implementation (physics) ---

// Resumed implements host.Client.
func (v *VCPU) Resumed(now sim.Time, speed float64) {
	v.hostActive = true
	v.speed = speed
	v.execMark = now
	v.emitSpeed(now, speed)
	v.scheduleCompletion()
	// Interrupt delivery, deferred ticks and rescheduling happen "on the
	// vCPU" as soon as it runs again; the zero-delay event keeps us out of
	// the host scheduler's critical section.
	v.vm.eng.After(0, v.resumeFn)
}

// Stopped implements host.Client.
func (v *VCPU) Stopped(now sim.Time) {
	v.syncExec()
	v.hostActive = false
	v.compEv.Cancel()
	v.compEv = sim.Event{}
}

// SpeedChanged implements host.Client.
func (v *VCPU) SpeedChanged(now sim.Time, speed float64) {
	v.syncExec()
	v.speed = speed
	v.emitSpeed(now, speed)
	v.scheduleCompletion()
}

// emitSpeed traces the vCPU's effective speed in integer millionths of a
// cycle/ns, deduplicated: a resume at an unchanged speed emits nothing, so
// halting workloads don't flood the ring. Attribution consumers cache the
// last value per vCPU, which deduplication keeps exact.
func (v *VCPU) emitSpeed(now sim.Time, speed float64) {
	if v.vm.tr == nil {
		return
	}
	micro := int64(float64(speed*1e6) + 0.5)
	if micro == v.lastSpeedMicro {
		return
	}
	v.lastSpeedMicro = micro
	v.vm.tr.Emit(now, vtrace.KindVCPUSpeed, v.vm.name, int64(v.id), micro, 0)
}

// onResumeWork drains everything that was waiting for the vCPU to really
// run: pending interrupts, a deferred tick, rescheduling, and dispatch.
func (v *VCPU) onResumeWork() {
	if !v.hostActive {
		return // lost the CPU again before the event fired
	}
	if len(v.pendingIRQ) > 0 {
		// Interrupts raised while draining queue on the other array and
		// wait for the next resume.
		irqs := v.pendingIRQ
		v.pendingIRQ = v.spareIRQ
		for _, fn := range irqs {
			fn()
		}
		clear(irqs)
		v.spareIRQ = irqs[:0]
	}
	if v.pendingTick {
		v.pendingTick = false
		v.tick()
	}
	if v.needResched {
		v.needResched = false
		v.reschedule()
	}
	v.dispatch()
}

// syncExec integrates the running task's progress up to now.
func (v *VCPU) syncExec() {
	now := v.vm.eng.Now()
	if v.curr != nil && v.hostActive {
		elapsed := now.Sub(v.execMark)
		if elapsed > 0 {
			t := v.curr
			rate := v.speed * v.llcFactor()
			cycles := float64(float64(elapsed) * rate)
			v.cyclesExec += cycles
			t.remaining -= cycles
			t.totalRun += elapsed
			t.vruntime += int64(elapsed) * WeightNormal / t.weight
			t.updatePELT(now, elapsed)
			t.lastRan = now
			if t.vruntime > v.minVruntime {
				v.minVruntime = t.vruntime
			}
		}
	}
	v.execMark = now
}

// scheduleCompletion (re)arms the event that fires when the running task's
// current compute segment finishes.
func (v *VCPU) scheduleCompletion() {
	v.compEv.Cancel()
	v.compEv = sim.Event{}
	t := v.curr
	if t == nil || !v.hostActive || math.IsInf(t.remaining, 1) {
		return
	}
	var d sim.Duration
	if t.remaining > 0 {
		d = sim.Duration(math.Ceil(t.remaining / (v.speed * v.llcFactor())))
	}
	v.compEv = v.vm.eng.After(d, v.completeFn)
}

func (v *VCPU) onComplete() {
	v.compEv = sim.Event{}
	v.syncExec()
	t := v.curr
	if t == nil {
		return
	}
	if t.remaining > 0.5 {
		// Speed dropped between scheduling and firing; rearm.
		v.scheduleCompletion()
		return
	}
	t.remaining = 0
	v.vm.advance(t)
}

// --- ticks ---

func (v *VCPU) startTicking(offset sim.Duration) {
	v.vm.eng.After(offset, v.tickFn)
}

func (v *VCPU) tickFire() {
	if !v.hostActive {
		// The timer interrupt pends; it is delivered the moment the vCPU
		// next runs (onResumeWork), exactly like a hardware timer raised
		// while the vCPU is preempted or halted.
		v.pendingTick = true
		return
	}
	v.tick()
}

// tick performs the guest scheduler tick and rearms the timer.
func (v *VCPU) tick() {
	now := v.vm.eng.Now()
	v.syncExec()
	prevStamp := v.lastTickStamp
	v.lastTickStamp = now

	// vact kernel instrumentation: detect steal jumps since the last tick.
	steal := v.ent.Steal()
	jump := steal - v.stealAtTick
	v.stealAtTick = steal
	if jump > v.vm.params.StealJumpThreshold {
		v.preemptCount++
		v.becameActiveAt = now
	}

	// Vanilla CFS capacity estimate: fraction of recent wall time not
	// stolen, EMA-smoothed with time-based decay (PELT's 32 ms half-life)
	// so long inactive windows (which arrive as one late tick) carry their
	// full weight. Only computable while busy.
	if v.curr != nil {
		window := now.Sub(prevStamp)
		if window > 0 {
			frac := 1 - float64(jump)/float64(window)
			if frac < 0 {
				frac = 0
			}
			d := v.vm.decay.factor(window)
			v.cfsCapacity = float64(v.cfsCapacity*d) + float64(1024*frac*(1-d))
		}
	}

	v.vm.ctr.ticks.Inc()

	// Refresh the LLC-contention factor and re-aim the completion event if
	// the socket's cache pressure changed.
	oldF := v.llcFactor()
	v.refreshLLC()
	if v.llcFactor() != oldF {
		v.scheduleCompletion()
	}

	// Preemption check for the running task.
	if v.curr != nil {
		if best := v.peekBest(); best != nil && v.tickShouldPreempt(best, v.curr, now) {
			v.contextSwitchTo(best)
		}
	}

	if v.vm.hooks.Tick != nil {
		v.vm.hooks.Tick(v)
	}

	// Periodic load balancing runs from whichever vCPU's tick comes due
	// first — balancing needs a really-running CPU to execute on, so a
	// fully inactive or idle VM performs none (unlike a global timer, which
	// would let the guest act while no vCPU runs). The interval carries a
	// little jitter (like Linux's per-domain interval backoff) so it cannot
	// phase-lock against periodic host contention.
	if now.Sub(v.vm.lastBalance) >= v.vm.params.BalancePeriod+v.vm.balanceSlack {
		v.vm.lastBalance = now
		v.vm.balanceSlack = sim.Duration(v.vm.eng.Rand().Int63n(int64(2 * sim.Millisecond)))
		v.vm.periodicBalance()
	}

	v.vm.eng.After(v.vm.params.TickPeriod, v.tickFn)
}

// tickShouldPreempt decides at tick time whether best should replace curr.
func (v *VCPU) tickShouldPreempt(best, curr *Task, now sim.Time) bool {
	if curr.idlePolicy && !best.idlePolicy {
		return true
	}
	if !curr.idlePolicy && best.idlePolicy {
		return false
	}
	if now.Sub(curr.sliceStart) < v.vm.params.MinGranularity {
		return false
	}
	if v.vm.params.Policy == PolicyEEVDF {
		return v.eevdfTickPreempt(best, curr, int64(v.vm.params.MinGranularity))
	}
	return best.vruntime < curr.vruntime
}

// peekBest returns the most deserving queued task without removing it,
// according to the active scheduling policy.
func (v *VCPU) peekBest() *Task {
	if v.vm.params.Policy == PolicyEEVDF {
		return v.peekBestEEVDF()
	}
	var best *Task
	for _, t := range v.rq {
		if best == nil || taskBefore(t, best) {
			best = t
		}
	}
	return best
}

// taskBefore orders runnable tasks: normal policy before SCHED_IDLE, then
// lower vruntime, then creation order for determinism.
func taskBefore(a, b *Task) bool {
	if a.idlePolicy != b.idlePolicy {
		return !a.idlePolicy
	}
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.seq < b.seq
}

// removeFromRQ deletes t from the runqueue slice.
func (v *VCPU) removeFromRQ(t *Task) {
	for i, q := range v.rq {
		if q == t {
			v.rq = append(v.rq[:i], v.rq[i+1:]...)
			v.syncMasks()
			return
		}
	}
}

// contextSwitchTo moves curr back to the queue and installs next.
func (v *VCPU) contextSwitchTo(next *Task) {
	v.syncExec()
	prev := v.curr
	if prev != nil {
		prev.state = TaskRunnable
		prev.enqueuedAt = v.vm.eng.Now()
		v.rq = append(v.rq, prev)
		v.syncMasks()
	}
	v.compEv.Cancel()
	v.compEv = sim.Event{}
	v.uninstallCurr()
	v.removeFromRQ(next)
	v.install(next)
}

// install makes t the running task of the vCPU.
func (v *VCPU) install(t *Task) {
	now := v.vm.eng.Now()
	t.totalQueueLat += now.Sub(t.enqueuedAt)
	t.state = TaskRunning
	t.cpu = v
	t.runStart = now
	t.sliceStart = now
	t.consumeCommDebt()
	v.curr = t
	v.syncMasks()
	if t.footprint > 0 {
		v.llcSocket = v.ent.Thread().Socket()
		v.vm.llcLoad[v.llcSocket] += t.footprint
	}
	v.refreshLLC()
	v.execMark = now
	v.vm.ctr.contextSwitches.Inc()
	v.vm.tr.Emit(now, vtrace.KindTaskOn, t.name, int64(v.id), int64(t.id), 0)
	v.scheduleCompletion()
}

// dispatch installs the next task if the vCPU is really running and idle;
// with nothing to do it performs new-idle balancing and then halts.
func (v *VCPU) dispatch() {
	if !v.hostActive || v.curr != nil {
		return
	}
	if len(v.rq) == 0 {
		v.vm.newIdleBalance(v)
		if v.curr != nil {
			// The pull path re-entered dispatch and already installed the
			// migrated task.
			return
		}
	}
	best := v.peekBest()
	if best == nil {
		// Guest idle loop: halt the vCPU. Probers and best-effort tasks
		// keep vCPUs busy instead when present.
		v.idleSince = v.vm.eng.Now()
		v.ent.Block()
		return
	}
	v.removeFromRQ(best)
	v.install(best)
}

// onResched is the resched IPI a wakeup sends to a running vCPU: it runs
// the pending preemption check unless something already consumed it.
func (v *VCPU) onResched() {
	if v.needResched {
		v.needResched = false
		if v.hostActive {
			v.reschedule()
		}
	}
}

// reschedule re-evaluates preemption after a remote wakeup set needResched.
func (v *VCPU) reschedule() {
	if v.curr == nil {
		v.dispatch()
		return
	}
	best := v.peekBest()
	if best == nil {
		return
	}
	if guestWakeupPreempt(best, v.curr, v.vm.params) {
		v.contextSwitchTo(best)
	}
}

// guestWakeupPreempt is the wakeup-preemption rule: normal tasks always
// preempt SCHED_IDLE; under CFS the wakee must lead by the wakeup
// granularity, under EEVDF it must hold an earlier virtual deadline.
func guestWakeupPreempt(wakee, curr *Task, p Params) bool {
	if curr.idlePolicy && !wakee.idlePolicy {
		return true
	}
	if wakee.idlePolicy && !curr.idlePolicy {
		return false
	}
	if p.Policy == PolicyEEVDF {
		slice := int64(p.MinGranularity)
		return wakee.vdeadline(slice) < curr.vdeadline(slice)
	}
	gran := int64(p.WakeupGranularity) * WeightNormal / curr.weight
	return curr.vruntime-wakee.vruntime > gran
}
