package host

import "vsched/internal/sim"

// Contenders are synthetic co-tenants: entities that occupy hardware threads
// to induce the vCPU dynamics the paper studies (capacity loss, inactive
// periods, stragglers). Experiments use them where the paper used competing
// VMs plus host scheduler tunables.

// NewStressor creates an always-runnable CFS entity with the given weight
// (a sysbench-style CPU hog in a co-located VM). It shares the thread fairly
// with other CFS entities according to weight.
func NewStressor(h *Host, name string, t *Thread, weight int64) *Entity {
	e := h.NewEntity(name, t, weight, NopClient{})
	e.Wake()
	return e
}

// PatternContender occupies its thread for `on` CPU time, sleeps for `off`,
// and repeats — a square-wave co-tenant. It runs in the host's realtime
// class, so while it is on, the vCPU sharing the thread is deterministically
// inactive. This is the controlled-experiment replacement for the paper's
// combination of CPU bandwidth control and granularity tunables: it pins a
// vCPU's inactive period to `on` and its active period to `off`.
type PatternContender struct {
	entity    *Entity
	eng       *sim.Engine
	on, off   sim.Duration
	remaining sim.Duration
	since     sim.Time
	sleeping  bool
	stopped   bool
	stopEv    sim.Event
	// burstFn and endBurstFn are burst and endBurst, bound once.
	burstFn, endBurstFn func()
}

// NewPatternContender creates and starts a pattern contender on thread t.
// The first burst begins at `phase` from now; bursts then repeat with period
// on+off. on and off must be positive.
func NewPatternContender(h *Host, name string, t *Thread, on, off, phase sim.Duration) *PatternContender {
	if on <= 0 || off < 0 {
		panic("host: pattern contender needs on > 0 and off >= 0")
	}
	p := &PatternContender{eng: h.Engine(), on: on, off: off}
	p.burstFn, p.endBurstFn = p.burst, p.endBurst
	p.entity = h.NewEntity(name, t, DefaultWeight, p)
	p.entity.SetRT(true)
	h.Engine().After(phase, p.burstFn)
	return p
}

// Entity returns the underlying schedulable entity.
func (p *PatternContender) Entity() *Entity { return p.entity }

// Stop permanently halts the contender after the current burst.
func (p *PatternContender) Stop() { p.stopped = true }

// SetPattern changes the duty cycle; takes effect from the next burst.
func (p *PatternContender) SetPattern(on, off sim.Duration) {
	if on <= 0 || off < 0 {
		panic("host: pattern contender needs on > 0 and off >= 0")
	}
	p.on, p.off = on, off
}

func (p *PatternContender) burst() {
	if p.stopped {
		return
	}
	p.sleeping = false
	p.remaining = p.on
	p.entity.Wake()
}

// Resumed implements Client: start the self-block countdown for the rest of
// this burst's CPU budget.
func (p *PatternContender) Resumed(now sim.Time, _ float64) {
	p.since = now
	p.stopEv = p.eng.After(p.remaining, p.endBurstFn)
}

// Stopped implements Client.
func (p *PatternContender) Stopped(now sim.Time) {
	if p.sleeping {
		return // our own Block at burst end
	}
	// Preempted mid-burst (e.g. by another RT entity): remember how much
	// burst is left.
	p.remaining -= now.Sub(p.since)
	if p.remaining < 0 {
		p.remaining = 0
	}
	p.stopEv.Cancel()
	p.stopEv = sim.Event{}
}

// SpeedChanged implements Client. The contender consumes wall time, not
// cycles, so speed changes are irrelevant to it.
func (p *PatternContender) SpeedChanged(sim.Time, float64) {}

func (p *PatternContender) endBurst() {
	p.stopEv = sim.Event{}
	p.sleeping = true
	p.entity.Block()
	if p.stopped {
		return
	}
	p.eng.After(p.off, p.burstFn)
}
