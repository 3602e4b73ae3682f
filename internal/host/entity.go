package host

import (
	"fmt"

	"vsched/internal/sim"
)

// EntityState is the hypervisor-side scheduling state of an entity.
type EntityState int

const (
	// Blocked: the entity has no work (a halted vCPU, a sleeping contender).
	Blocked EntityState = iota
	// Runnable: the entity wants the CPU but another entity holds it. For a
	// vCPU this is the "inactive with pending work" state — steal time
	// accrues here.
	Runnable
	// Running: the entity currently executes on its hardware thread.
	Running
	// Throttled: CPU bandwidth control exhausted the entity's quota; it is
	// barred from running until the next refill. The guest perceives this
	// exactly like preemption, so steal time accrues here too.
	Throttled
)

func (s EntityState) String() string {
	switch s {
	case Blocked:
		return "blocked"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Throttled:
		return "throttled"
	}
	return "invalid"
}

// DefaultWeight is the CFS weight of a nice-0 entity.
const DefaultWeight = 1024

// Client receives notifications about an entity's execution. The guest
// layers a vCPU on top of an Entity through this interface.
//
// Contract: callbacks run inside the host scheduler's critical section and
// MUST NOT synchronously call Entity methods that change schedulability
// (Wake, Block, Migrate, SetBandwidth). Defer such work with a zero-delay
// engine event.
type Client interface {
	// Resumed fires when the entity transitions to Running, with its current
	// effective speed in cycles per nanosecond.
	Resumed(now sim.Time, speed float64)
	// Stopped fires when the entity stops Running for any reason
	// (preemption, throttling, or its own Block call).
	Stopped(now sim.Time)
	// SpeedChanged fires while Running when the effective speed changes
	// (SMT sibling activity, turbo, thread speed factor).
	SpeedChanged(now sim.Time, speed float64)
}

// NopClient is a Client that ignores all notifications; synthetic contenders
// that don't track progress embed it.
type NopClient struct{}

func (NopClient) Resumed(sim.Time, float64)      {}
func (NopClient) Stopped(sim.Time)               {}
func (NopClient) SpeedChanged(sim.Time, float64) {}

// Entity is anything the hypervisor schedules on a hardware thread: a guest
// vCPU or a synthetic co-tenant contender.
type Entity struct {
	name   string
	host   *Host
	seq    uint64
	client Client

	thread *Thread // home thread (runqueue it lives on)
	state  EntityState

	// CFS parameters. RT entities (rt=true) model SCHED_FIFO co-tenants:
	// they always beat CFS entities and are never preempted by them.
	weight   int64
	rt       bool
	vruntime int64 // weighted nanoseconds

	// CPU bandwidth control; quota==0 means unlimited.
	quota      sim.Duration
	periodUsed sim.Duration
	refill     sim.Event

	// Accounting.
	lastChange  sim.Time
	runNS       sim.Duration // total time spent Running
	stealNS     sim.Duration // total time Runnable or Throttled
	preemptions uint64       // involuntary Running -> Runnable/Throttled
}

// NewEntity registers a new schedulable entity homed on thread t. It starts
// Blocked; call Wake to make it runnable. A nil client panics — use
// NopClient instead.
func (h *Host) NewEntity(name string, t *Thread, weight int64, client Client) *Entity {
	if client == nil {
		panic("host: nil Client for entity " + name)
	}
	if weight <= 0 {
		panic(fmt.Sprintf("host: non-positive weight %d for entity %s", weight, name))
	}
	h.seq++
	e := &Entity{
		name:       name,
		host:       h,
		seq:        h.seq,
		client:     client,
		thread:     t,
		state:      Blocked,
		weight:     weight,
		lastChange: h.eng.Now(),
	}
	e.vruntime = t.minVruntime
	h.entities = append(h.entities, e)
	return e
}

// Name returns the entity's name.
func (e *Entity) Name() string { return e.name }

// State returns the current scheduling state.
func (e *Entity) State() EntityState { return e.state }

// Thread returns the hardware thread whose runqueue the entity is homed on.
func (e *Entity) Thread() *Thread { return e.thread }

// IsRT reports whether the entity is in the (FIFO) realtime class.
func (e *Entity) IsRT() bool { return e.rt }

// SetRT moves the entity into or out of the realtime class. Only valid
// before the entity first wakes.
func (e *Entity) SetRT(rt bool) {
	if e.state != Blocked {
		panic("host: SetRT on a live entity")
	}
	e.rt = rt
}

// Steal returns the cumulative time the entity has spent wanting the CPU
// without running (Runnable + Throttled). This is the counter a paravirt
// guest reads as steal time; it is the only host-internal quantity vSched is
// allowed to consume.
func (e *Entity) Steal() sim.Duration {
	s := e.stealNS
	if e.state == Runnable || e.state == Throttled {
		s += e.host.eng.Now().Sub(e.lastChange)
	}
	return s
}

// RunTime returns the cumulative time spent Running.
func (e *Entity) RunTime() sim.Duration {
	r := e.runNS
	if e.state == Running {
		r += e.host.eng.Now().Sub(e.lastChange)
	}
	return r
}

// Preemptions returns how many times the entity was involuntarily
// descheduled. Ground truth for experiments; the guest-side vact must infer
// this from steal jumps instead.
func (e *Entity) Preemptions() uint64 { return e.preemptions }

// setState performs bookkeeping common to all transitions.
func (e *Entity) setState(to EntityState) {
	now := e.host.eng.Now()
	from := e.state
	if from == to {
		return
	}
	d := now.Sub(e.lastChange)
	switch from {
	case Running:
		e.runNS += d
	case Runnable, Throttled:
		e.stealNS += d
	}
	e.state = to
	e.lastChange = now
	if from == Running && (to == Runnable || to == Throttled) {
		e.preemptions++
	}
	for _, fn := range e.host.observers {
		fn(e, now, from, to)
	}
}

// SetBandwidth caps the entity at quota per host bandwidth period. quota==0
// removes the cap. The cap takes effect from the current period.
func (e *Entity) SetBandwidth(quota sim.Duration) {
	if quota < 0 {
		panic("host: negative bandwidth quota")
	}
	e.quota = quota
	if quota == 0 {
		e.refill.Cancel()
		e.refill = sim.Event{}
		e.periodUsed = 0
		if e.state == Throttled {
			e.unthrottle()
		}
		return
	}
	if !e.refill.Active() {
		e.scheduleRefill()
	}
	// A running entity's slice must now also respect the quota boundary.
	if e.state == Running {
		e.thread.resliceCurrent()
	}
}

func (e *Entity) scheduleRefill() {
	period := e.host.cfg.BandwidthPeriod
	e.refill = e.host.eng.After(period, func() {
		e.periodUsed = 0
		if e.quota == 0 {
			e.refill = sim.Event{}
			return
		}
		e.scheduleRefill()
		if e.state == Throttled {
			e.unthrottle()
		} else if e.state == Running {
			e.thread.resliceCurrent()
		}
	})
}

func (e *Entity) unthrottle() {
	e.setState(Runnable)
	e.thread.enqueue(e, true)
}

// Wake makes a Blocked entity runnable on its home thread. Waking an entity
// that is not Blocked is a harmless no-op (concurrent kicks are normal).
func (e *Entity) Wake() {
	if e.state != Blocked {
		return
	}
	if e.quota > 0 && e.periodUsed >= e.quota {
		e.setState(Throttled)
		return
	}
	// CFS wakeup placement: don't let long sleepers hoard vruntime credit;
	// cap the credit at one scheduling latency. The thread's accounting must
	// be current first, or min_vruntime lags behind the running entity and
	// the clamp hands out unbounded credit.
	e.thread.syncCurrent()
	if !e.rt {
		bonus := int64(e.thread.minGranularity())
		if v := e.thread.minVruntime - bonus; e.vruntime < v {
			e.vruntime = v
		}
	}
	e.setState(Runnable)
	e.thread.enqueue(e, true)
}

// Block removes the entity from scheduling (vCPU halt / contender sleep).
// Blocking an already-Blocked entity is a no-op.
func (e *Entity) Block() {
	switch e.state {
	case Blocked:
		return
	case Running:
		e.thread.stopCurrent(Blocked)
		e.thread.schedule()
	case Runnable:
		e.thread.dequeue(e)
		e.setState(Blocked)
	case Throttled:
		e.setState(Blocked)
	}
}

// Migrate moves the entity to another hardware thread's runqueue (vCPU
// repinning / VM migration). A Running entity is stopped first and resumes
// scheduling on the target according to its vruntime there.
func (e *Entity) Migrate(dst *Thread) {
	if dst == e.thread {
		return
	}
	src := e.thread
	switch e.state {
	case Running:
		src.stopCurrent(Runnable)
		src.dequeue(e)
		src.schedule()
	case Runnable:
		src.dequeue(e)
	}
	// Renormalize vruntime into the destination queue's frame.
	e.vruntime = e.vruntime - src.minVruntime + dst.minVruntime
	e.thread = dst
	if e.state == Runnable {
		dst.enqueue(e, true)
	}
}
