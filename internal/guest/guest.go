package guest

import (
	"fmt"
	"math"

	"vsched/internal/cachemodel"
	"vsched/internal/host"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Params are the guest scheduler tunables (Linux-like defaults).
type Params struct {
	// Policy selects CFS (default) or EEVDF task picking.
	Policy            SchedPolicy
	TickPeriod        sim.Duration // scheduler tick (CONFIG_HZ=1000)
	MinGranularity    sim.Duration // minimum slice before tick preemption
	WakeupGranularity sim.Duration // wakeup preemption threshold
	BalancePeriod     sim.Duration // periodic load-balance interval
	CacheHot          sim.Duration // don't migrate tasks that ran this recently
	// StealJumpThreshold filters noise when vact's tick instrumentation
	// detects preemptions from steal-time increases.
	StealJumpThreshold sim.Duration
	// Communication cost (cycles) charged to a wakee whose waker sits on a
	// core in the same socket / a different socket. Models cache-line and
	// working-set transfer; zero within a core.
	CommPenaltySocket float64
	CommPenaltyCross  float64
	// LLCSizeMB is the per-socket last-level cache size; when the summed
	// footprints of tasks installed in a socket exceed it, everyone there
	// runs slower (capacity contention).
	LLCSizeMB float64
}

// DefaultParams returns Linux-like guest scheduler parameters.
func DefaultParams() Params {
	return Params{
		TickPeriod:         1 * sim.Millisecond,
		MinGranularity:     750 * sim.Microsecond,
		WakeupGranularity:  1 * sim.Millisecond,
		BalancePeriod:      8 * sim.Millisecond,
		CacheHot:           500 * sim.Microsecond,
		StealJumpThreshold: 200 * sim.Microsecond,
		CommPenaltySocket:  3000,
		CommPenaltyCross:   24000,
		LLCSizeMB:          16,
	}
}

// Hooks are the vSched attachment points — the simulation analogue of the
// paper's BPF hooks on CFS's CPU-selection path and tick handler.
type Hooks struct {
	// SelectCPU, if set, is consulted first on task wakeup. Returning nil
	// falls back to the stock CFS heuristic.
	SelectCPU func(t *Task, prev *VCPU) *VCPU
	// Tick, if set, runs at the end of every scheduler tick on the ticking
	// vCPU (ivh's trigger point).
	Tick func(v *VCPU)
}

// Stats aggregates guest scheduler event counters.
type Stats struct {
	Wakeups          uint64
	IPIs             uint64 // kicks/resched interrupts to other vCPUs
	CrossIPIs        uint64 // IPIs whose sender and target sit on different sockets
	Migrations       uint64 // task migrations of any kind
	ActiveMigrations uint64
	ContextSwitches  uint64
	Ticks            uint64
}

// guestCounters caches the registry instruments backing Stats, so the hot
// path is a pointer increment with no map lookups.
type guestCounters struct {
	wakeups, ipis, crossIPIs     *metrics.Counter
	migrations, activeMigrations *metrics.Counter
	contextSwitches, ticks       *metrics.Counter
}

// VM is a guest virtual machine: vCPUs pinned on host threads plus the guest
// scheduler.
type VM struct {
	eng    *sim.Engine
	h      *host.Host
	name   string
	vcpus  []*VCPU
	params Params
	topo   Belief
	hooks  Hooks
	root   *CGroup
	reg    *metrics.Registry
	ctr    guestCounters
	tr     *vtrace.Tracer

	taskSeq      int
	lastBalance  sim.Time
	balanceSlack sim.Duration
	started      bool

	// sockets and coreGroups are topo's socket and core groups in
	// first-appearance order, derived once per published belief.
	sockets    [][]int
	coreGroups [][]*VCPU
	// sockMask[i] and coreMask[i] are vCPU i's believed socket and core
	// groups as masks, derived with sockets and coreGroups. only[i] is {i}
	// (a pinned task's allowed set) and all holds every vCPU.
	sockMask, coreMask, only []cpumask
	all                      cpumask

	// idle and overloaded mirror each vCPU's runqueue as one bit: idle is
	// GuestIdle (no curr, empty rq), overloaded marks a pull donor (a
	// queued task and at least two runnable). syncMasks keeps both exact
	// at every change of curr or rq, so wake and pull scans read them
	// instead of walking the vCPUs.
	idle, overloaded cpumask
	// capCeil bounds the capacity any guest-idle vCPU can report: 1024 or
	// the largest capacity ever published. A task that does not fit it
	// fits no idle vCPU, so the wake scan skips the capacity walk.
	capCeil int64

	// decay memoises the PELT decay factor for this VM's tasks and ticks.
	decay decayMemo

	// llcLoad[s] is the summed footprint (MB) of tasks installed on vCPUs
	// hosted in physical socket s.
	llcLoad []float64
}

// NewVM creates a VM with one vCPU per given host thread (vCPU i pinned on
// threads[i], the virsh-pin deployment model the paper's experiments use).
func NewVM(h *host.Host, name string, threads []*host.Thread, params Params) *VM {
	if len(threads) == 0 {
		panic("guest: VM needs at least one vCPU")
	}
	vm := &VM{
		eng:     h.Engine(),
		h:       h,
		name:    name,
		params:  params,
		llcLoad: make([]float64, h.Config().Sockets),
		capCeil: 1024,
	}
	vm.decay.reset()
	vm.reg = metrics.NewRegistry()
	vm.ctr = guestCounters{
		wakeups:          vm.reg.Counter("guest.wakeups"),
		ipis:             vm.reg.Counter("guest.ipis"),
		crossIPIs:        vm.reg.Counter("guest.ipis_cross"),
		migrations:       vm.reg.Counter("guest.migrations"),
		activeMigrations: vm.reg.Counter("guest.migrations_active"),
		contextSwitches:  vm.reg.Counter("guest.context_switches"),
		ticks:            vm.reg.Counter("guest.ticks"),
	}
	n := len(threads)
	vm.root = newGroup("root", n)
	vm.all = vm.root.allowed.clone()
	vm.idle, vm.overloaded = vm.all.clone(), newCPUMask(n)
	vm.only = groupMasks(groups(DefaultBelief(n).CoreOf), n) // every vCPU its own group
	for i, th := range threads {
		v := &VCPU{vm: vm, id: i, cfsCapacity: 1024}
		v.completeFn, v.tickFn, v.resumeFn, v.reschedFn = v.onComplete, v.tickFire, v.onResumeWork, v.onResched
		v.ent = h.NewEntity(fmt.Sprintf("%s/vcpu%d", name, i), th, host.DefaultWeight, v)
		vm.vcpus = append(vm.vcpus, v)
	}
	vm.setTopology(DefaultBelief(len(threads)))
	return vm
}

// Name returns the VM name.
func (vm *VM) Name() string { return vm.name }

// Engine returns the simulation engine.
func (vm *VM) Engine() *sim.Engine { return vm.eng }

// Host returns the physical host.
func (vm *VM) Host() *host.Host { return vm.h }

// Params returns the guest scheduler parameters.
func (vm *VM) Params() Params { return vm.params }

// NumVCPUs returns the vCPU count.
func (vm *VM) NumVCPUs() int { return len(vm.vcpus) }

// VCPU returns vCPU i.
func (vm *VM) VCPU(i int) *VCPU { return vm.vcpus[i] }

// VCPUs returns all vCPUs.
func (vm *VM) VCPUs() []*VCPU { return vm.vcpus }

// Stats returns a snapshot of scheduler counters.
func (vm *VM) Stats() Stats {
	return Stats{
		Wakeups:          vm.ctr.wakeups.Value(),
		IPIs:             vm.ctr.ipis.Value(),
		CrossIPIs:        vm.ctr.crossIPIs.Value(),
		Migrations:       vm.ctr.migrations.Value(),
		ActiveMigrations: vm.ctr.activeMigrations.Value(),
		ContextSwitches:  vm.ctr.contextSwitches.Value(),
		Ticks:            vm.ctr.ticks.Value(),
	}
}

// Metrics returns the VM's metrics registry. The guest scheduler registers
// its counters under "guest."; vSched adds its own under "vsched." when
// attached to this VM.
func (vm *VM) Metrics() *metrics.Registry { return vm.reg }

// SetTracer attaches a structured event tracer (nil to disable, the
// default). Call before Start.
func (vm *VM) SetTracer(tr *vtrace.Tracer) { vm.tr = tr }

// Tracer returns the attached tracer (nil when tracing is off).
func (vm *VM) Tracer() *vtrace.Tracer { return vm.tr }

// TotalCycles returns the cycles executed by the whole VM (all vCPUs, all
// tasks including probers) — the Fig. 20 cost metric.
func (vm *VM) TotalCycles() float64 {
	var c float64
	for _, v := range vm.vcpus {
		c += v.cyclesExec
	}
	return c
}

// RootGroup returns the default cgroup all tasks start in.
func (vm *VM) RootGroup() *CGroup { return vm.root }

// InstallHooks attaches vSched's scheduling hooks.
func (vm *VM) InstallHooks(h Hooks) { vm.hooks = h }

// SetTopology publishes a new believed topology and rebuilds scheduling
// domains (the paper's rebuild_sched_domains path). The VM keeps a copy, so
// the caller may go on mutating b.
func (vm *VM) SetTopology(b Belief) {
	if len(b.CoreOf) != len(vm.vcpus) || len(b.SocketOf) != len(vm.vcpus) {
		panic("guest: belief size mismatch")
	}
	vm.setTopology(b.Clone())
}

// setTopology installs b, which the VM owns from here on, and derives the
// domains balancing and placement walk.
func (vm *VM) setTopology(b Belief) {
	vm.topo = b
	vm.sockets = b.Sockets()
	vm.sockMask = groupMasks(vm.sockets, len(vm.vcpus))
	cores := groups(b.CoreOf)
	vm.coreMask = groupMasks(cores, len(vm.vcpus))
	vm.coreGroups = vm.coreGroups[:0]
	for _, ids := range cores {
		members := make([]*VCPU, len(ids))
		for k, id := range ids {
			members[k] = vm.vcpus[id]
		}
		vm.coreGroups = append(vm.coreGroups, members)
	}
}

// Topology returns the currently believed topology. It shares the VM's
// slices: treat it as read-only, or Clone it.
func (vm *VM) Topology() Belief { return vm.topo }

// Start launches ticks and periodic load balancing. Idempotent.
func (vm *VM) Start() {
	if vm.started {
		return
	}
	vm.started = true
	for i, v := range vm.vcpus {
		// Stagger ticks slightly so the whole VM doesn't tick in lockstep.
		off := vm.params.TickPeriod + sim.Duration(i)*vm.params.TickPeriod/sim.Duration(len(vm.vcpus)+1)
		v.startTicking(off)
	}
}

// TaskOpt configures a spawned task.
type TaskOpt func(*Task)

// WithWeight sets the task's CFS weight (nice level).
func WithWeight(w int64) TaskOpt {
	return func(t *Task) { t.weight = w }
}

// WithIdlePolicy marks the task SCHED_IDLE (best-effort).
func WithIdlePolicy() TaskOpt {
	return func(t *Task) { t.idlePolicy = true; t.weight = WeightIdle }
}

// WithLatencySensitive marks the task latency-critical (user-space hint).
func WithLatencySensitive() TaskOpt {
	return func(t *Task) { t.LatencySensitive = true }
}

// WithGroup places the task in a cgroup.
func WithGroup(g *CGroup) TaskOpt {
	return func(t *Task) { t.group = g }
}

// WithAffinity pins the task to a single vCPU (per-task cpuset).
func WithAffinity(cpu int) TaskOpt {
	return func(t *Task) { t.affinity = cpu }
}

// StartOn places the task's first wakeup on a specific vCPU instead of
// running CPU selection.
func StartOn(cpu int) TaskOpt {
	return func(t *Task) { t.startOn = cpu }
}

// WithFootprint declares the task's cache working set in MB (drives LLC
// capacity contention).
func WithFootprint(mb float64) TaskOpt {
	return func(t *Task) { t.footprint = mb }
}

// Spawn creates a task and makes it runnable.
func (vm *VM) Spawn(name string, b Behavior, opts ...TaskOpt) *Task {
	if b == nil {
		panic("guest: nil behavior")
	}
	vm.taskSeq++
	t := &Task{
		vm:       vm,
		id:       vm.taskSeq,
		seq:      vm.taskSeq,
		name:     name,
		weight:   WeightNormal,
		behavior: b,
		state:    TaskSleeping,
		group:    vm.root,
		affinity: -1,
		startOn:  -1,
		lastPELT: vm.eng.Now(),
	}
	t.sleepFn, t.wakeFn = t.onSleepTimer, t.onWakeIRQ
	for _, o := range opts {
		o(t)
	}
	if t.group == nil {
		t.group = vm.root
	}
	// Fork placement: an explicit StartOn/affinity wins; otherwise behave
	// like find_idlest_cpu — spread new tasks over the least loaded believed
	// domain. This is what lets separately launched programs settle into
	// separate LLC domains when the topology is known.
	var first *VCPU
	switch {
	case t.startOn >= 0:
		first = vm.vcpus[t.startOn]
	case t.affinity >= 0:
		first = vm.vcpus[t.affinity]
	default:
		first = vm.selectCPUFork(t)
	}
	t.cpu = first
	vm.ctr.wakeups.Inc()
	t.wakeups++
	vm.tr.Emit(vm.eng.Now(), vtrace.KindTaskWakeup, t.name, int64(t.id), int64(first.id), -1)
	vm.enqueue(first, t, nil)
	return t
}

// --- wakeups and interrupt delivery ---

// wakeTask makes a sleeping task runnable: select a vCPU, enqueue, resolve
// preemption and kicks. waker is the vCPU on which the waking code runs
// (nil for external/timer wakeups delivered by the IRQ path).
func (vm *VM) wakeTask(t *Task, waker *VCPU) {
	vm.wakeTaskWide(t, waker, false)
}

// wakeTaskWide is wakeTask with Linux's wake_wide distinction: fan-out
// wakeups (barrier releases, broadcasts) must not pull every wakee into the
// waker's domain.
func (vm *VM) wakeTaskWide(t *Task, waker *VCPU, wide bool) {
	if t.state != TaskSleeping || t.exited {
		return
	}
	vm.ctr.wakeups.Inc()
	t.wakeups++
	affineWaker := waker
	if wide {
		affineWaker = nil
	}
	target := vm.selectCPU(t, t.cpu, affineWaker)
	// Communication cost: pulling the working set to the chosen CPU.
	if waker != nil && vm.params.CommPenaltyCross > 0 {
		rel := vm.h.Relation(waker.ent.Thread().ID(), target.ent.Thread().ID())
		switch rel {
		case cachemodel.Socket:
			t.commDebt += vm.params.CommPenaltySocket
		case cachemodel.Cross:
			t.commDebt += vm.params.CommPenaltyCross
		}
	}
	// The waker's current task, when there is one, is what the attribution
	// profiler's critical-path view chains through.
	wakerID := int64(-1)
	if waker != nil && waker.curr != nil {
		wakerID = int64(waker.curr.id)
	}
	vm.tr.Emit(vm.eng.Now(), vtrace.KindTaskWakeup, t.name, int64(t.id), int64(target.id), wakerID)
	vm.enqueue(target, t, waker)
}

// enqueue puts a runnable task on v's queue and handles kick/preempt.
func (vm *VM) enqueue(v *VCPU, t *Task, waker *VCPU) {
	now := vm.eng.Now()
	t.state = TaskRunnable
	t.cpu = v
	t.enqueuedAt = now
	// Wakeup vruntime placement relative to the target queue.
	bonus := int64(vm.params.WakeupGranularity)
	if !t.idlePolicy {
		if floor := v.minVruntime - bonus; t.vruntime < floor {
			t.vruntime = floor
		}
	} else if t.vruntime < v.minVruntime {
		t.vruntime = v.minVruntime
	}
	v.rq = append(v.rq, t)
	v.syncMasks()

	if v.curr == nil {
		if v.ent.State() == host.Blocked {
			// Halted vCPU: kick it awake (resched IPI from waker or timer).
			if waker != v {
				vm.countIPI(waker, v)
			}
			v.ent.Wake()
			return
		}
		if v.hostActive {
			v.dispatch()
		}
		// Inactive but runnable: the task waits for the vCPU — extended
		// runqueue latency.
		return
	}
	if guestWakeupPreempt(t, v.curr, vm.params) {
		if v.hostActive {
			if waker != v {
				vm.countIPI(waker, v)
			}
			v.needResched = true
			vm.eng.After(0, v.reschedFn)
		} else {
			v.needResched = true
		}
	}
}

// DeliverIRQ runs fn in interrupt context on vCPU v: immediately when the
// vCPU is really running, otherwise as soon as it next runs (kicking it
// awake if halted). Timer expiries and external arrivals use this — their
// delivery latency includes the vCPU's inactivity, which is exactly the
// extended-latency effect of Fig. 2.
func (vm *VM) DeliverIRQ(v *VCPU, fn func()) {
	if v.hostActive {
		fn()
		return
	}
	v.pendingIRQ = append(v.pendingIRQ, fn)
	if v.ent.State() == host.Blocked {
		v.ent.Wake()
	}
}

// countIPI records an inter-processor interrupt from waker (nil = external
// interrupt context) to target, tracking cross-socket IPIs separately —
// those are the expensive ones Fig. 13 counts.
func (vm *VM) countIPI(waker, target *VCPU) {
	vm.ctr.ipis.Inc()
	if waker != nil &&
		waker.ent.Thread().Socket() != target.ent.Thread().Socket() {
		vm.ctr.crossIPIs.Inc()
	}
}

// KickVCPU sends a wakeup IPI to a halted vCPU (a legitimate guest
// operation; ivh uses it to pre-wake migration targets).
func (vm *VM) KickVCPU(v *VCPU) {
	vm.ctr.ipis.Inc()
	if v.ent.State() == host.Blocked {
		v.ent.Wake()
	}
}

// chargeMigrationCost adds the working-set transfer cost of moving task t
// between two hardware threads (cache refill on the destination).
func (vm *VM) chargeMigrationCost(t *Task, src, dst *VCPU) {
	rel := vm.h.Relation(src.ent.Thread().ID(), dst.ent.Thread().ID())
	var cost float64
	switch rel {
	case cachemodel.Socket:
		cost = vm.params.CommPenaltySocket
	case cachemodel.Cross:
		cost = vm.params.CommPenaltyCross
	}
	if cost > 0 {
		t.commDebt += cost
		vm.tr.Emit(vm.eng.Now(), vtrace.KindMigCost, t.name, int64(t.id), int64(cost), 0)
	}
}

// Post increments sem from daemon/interrupt context, waking one waiter.
// Equivalent to a task running SemPost, but callable from timers.
func (vm *VM) Post(s *Semaphore) {
	if len(s.waiters) > 0 {
		vm.wakeTask(popFront(&s.waiters), nil)
		return
	}
	s.count++
}

// BroadcastCond wakes every waiter of c from daemon/interrupt context, as
// fan-out wakeups. The drained queue's array is kept for the next waiters
// unless a wakeup queued a new waiter meanwhile.
func (vm *VM) BroadcastCond(c *Cond) {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		vm.wakeTaskWide(w, nil, true)
	}
	if c.waiters == nil {
		clear(ws)
		c.waiters = ws[:0]
	}
}

// --- task program execution ---

// advance runs t's behavior until it blocks, computes, or exits. t must be
// the current task of its vCPU.
func (vm *VM) advance(t *Task) {
	v := t.cpu
	now := vm.eng.Now()
	for iter := 0; ; iter++ {
		if iter > 100000 {
			panic("guest: runaway task program (no blocking or compute segment): " + t.name)
		}
		seg := t.behavior(now)
		switch seg.Kind {
		case SegCompute:
			if seg.Cycles < 0 {
				panic("guest: negative compute cycles")
			}
			t.remaining = seg.Cycles
			t.consumeCommDebt()
			v.scheduleCompletion()
			return

		case SegSleep:
			vm.blockCurr(t)
			vm.eng.After(sim.Duration(seg.arg), t.sleepFn)
			return

		case SegAcquire:
			m := seg.sync
			if m.owner == nil {
				m.owner = t
				continue
			}
			m.waiters = append(m.waiters, t)
			vm.blockCurr(t)
			return

		case SegAcquireSpin:
			m := seg.sync
			if m.owner == nil {
				m.owner = t
				continue
			}
			// Busy-wait: burn CPU until granted. The grant aborts the spin.
			t.spinOn = m
			m.spinners = append(m.spinners, t)
			t.remaining = math.Inf(1)
			v.scheduleCompletion()
			return

		case SegRelease:
			vm.releaseMutex(seg.sync, v)
			continue

		case SegCondWait:
			c := seg.sync
			c.waiters = append(c.waiters, t)
			vm.blockCurr(t)
			return

		case SegCondSignal:
			if c := seg.sync; len(c.waiters) > 0 {
				vm.wakeTask(popFront(&c.waiters), v)
			}
			continue

		case SegSemWait:
			s := seg.sync
			if s.count > 0 {
				s.count--
				continue
			}
			s.waiters = append(s.waiters, t)
			vm.blockCurr(t)
			return

		case SegSemPost:
			s := seg.sync
			if len(s.waiters) > 0 {
				vm.wakeTask(popFront(&s.waiters), v)
			} else {
				s.count++
			}
			continue

		case SegBarrier:
			b := seg.sync
			b.arrived = append(b.arrived, t)
			if len(b.arrived) == b.parties {
				arrived := b.arrived
				b.arrived = nil
				for _, o := range arrived[:len(arrived)-1] {
					if o.spinOn == b {
						vm.abortSpin(o)
					} else {
						vm.wakeTaskWide(o, v, true)
					}
				}
				// The next generation reuses the array, as in broadcast.
				if b.arrived == nil {
					clear(arrived)
					b.arrived = arrived[:0]
				}
				continue // last arriver proceeds
			}
			if b.Spin {
				t.spinOn = b
				t.remaining = math.Inf(1)
				v.scheduleCompletion()
				return
			}
			vm.blockCurr(t)
			return

		case SegMigrate:
			dst := vm.vcpus[seg.arg]
			if dst == v {
				continue
			}
			// sched_setaffinity-style self migration: requeue on dst.
			v.syncExec()
			v.uninstallCurr()
			v.compEv.Cancel()
			v.compEv = sim.Event{}
			t.remaining = 0
			t.vruntime = t.vruntime - v.minVruntime + dst.minVruntime
			vm.ctr.migrations.Inc()
			vm.tr.Emit(now, vtrace.KindTaskMigrate, t.name, int64(t.id), int64(v.id), int64(dst.id))
			vm.enqueue(dst, t, v)
			v.dispatch()
			return

		case SegExit:
			t.state = TaskExited
			t.exited = true
			v.syncExec()
			v.uninstallCurr()
			v.compEv.Cancel()
			v.compEv = sim.Event{}
			if t.OnExit != nil {
				t.OnExit(now)
			}
			v.dispatch()
			return

		default:
			panic(fmt.Sprintf("guest: unknown segment kind %d", seg.Kind))
		}
	}
}

// releaseMutex hands the lock to the next contender: active spinners first
// (they grab it the instant it frees), then blocked waiters FIFO.
func (vm *VM) releaseMutex(m *syncState, waker *VCPU) {
	if len(m.spinners) > 0 {
		next := popFront(&m.spinners)
		m.owner = next
		vm.abortSpin(next)
		return
	}
	if len(m.waiters) > 0 {
		next := popFront(&m.waiters)
		m.owner = next
		vm.wakeTask(next, waker)
		return
	}
	m.owner = nil
}

// abortSpin ends a task's busy-wait: its infinite compute collapses so its
// program advances as soon as the task next executes (which, for a spinner
// on a preempted vCPU, is only when that vCPU becomes active again —
// lock-holder/waiter preemption physics come out of this for free).
func (vm *VM) abortSpin(t *Task) {
	t.spinOn = nil
	t.remaining = 0
	if t.state == TaskRunning {
		t.cpu.scheduleCompletion()
	}
}

// blockCurr removes the running task from its vCPU (sleep/lock wait).
func (vm *VM) blockCurr(t *Task) {
	v := t.cpu
	if v.curr != t {
		panic("guest: blockCurr on non-current task " + t.name)
	}
	v.syncExec()
	t.state = TaskSleeping
	v.uninstallCurr()
	v.compEv.Cancel()
	v.compEv = sim.Event{}
	v.dispatch()
}

// MigrateQueued moves a runnable (queued) task to another vCPU's queue.
func (vm *VM) MigrateQueued(t *Task, dst *VCPU) {
	if t.state != TaskRunnable {
		panic("guest: MigrateQueued on non-runnable task")
	}
	src := t.cpu
	if src == dst {
		return
	}
	src.removeFromRQ(t)
	t.vruntime = t.vruntime - src.minVruntime + dst.minVruntime
	t.lastMigrate = vm.eng.Now()
	vm.chargeMigrationCost(t, src, dst)
	vm.ctr.migrations.Inc()
	vm.tr.Emit(vm.eng.Now(), vtrace.KindTaskMigrate, t.name, int64(t.id), int64(src.id), int64(dst.id))
	vm.enqueue(dst, t, nil)
}

// PullRunning implements the stopper-thread protocol for migrating a
// *running* task: the stopper can only execute on the source vCPU while it
// is really active. It returns false — and migrates nothing — when the
// source is inactive or the task is no longer current there (the paper's
// "failed migration" case). On success the task is detached and enqueued on
// dst.
func (vm *VM) PullRunning(src, dst *VCPU, t *Task) bool {
	if !src.hostActive || src.curr != t {
		return false
	}
	src.syncExec()
	src.uninstallCurr()
	src.compEv.Cancel()
	src.compEv = sim.Event{}
	t.state = TaskRunnable
	t.enqueuedAt = vm.eng.Now()
	t.vruntime = t.vruntime - src.minVruntime + dst.minVruntime
	t.lastMigrate = vm.eng.Now()
	vm.chargeMigrationCost(t, src, dst)
	vm.ctr.migrations.Inc()
	vm.ctr.activeMigrations.Inc()
	vm.tr.Emit(vm.eng.Now(), vtrace.KindTaskMigrate, t.name, int64(t.id), int64(src.id), int64(dst.id))
	vm.enqueue(dst, t, src)
	src.dispatch()
	return true
}
