package core

import (
	"fmt"

	"vsched/internal/guest"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// vcap probes dynamic vCPU capacity with cooperative, multi-phase sampling
// (§3.1). One prober task per vCPU samples all vCPUs simultaneously during
// a 100ms window every second. In the regular light phase the probers run
// at SCHED_IDLE — they only consume otherwise-idle cycles, keeping the vCPU
// busy so steal time (and with it the vCPU's share of its core) becomes
// observable. Every fifth sampling is heavy: probers take elevated priority
// and measure achieved work rate, which calibrates the hosting core's speed;
// the light phases then convert share into capacity using that calibration.
type vcap struct {
	s     *VSched
	per   []*vcapVCPU
	light int // light samplings since the last heavy one
	// sampling state
	sampling bool
	heavy    bool
	banned   []bool // rwc-banned stacked vCPUs: no sampling there
	// beginFn and endFn are beginWindow and endWindow, bound once.
	beginFn, endFn func()
}

type vcapVCPU struct {
	v      *guest.VCPU
	prober *guest.Task
	park   *guest.Cond
	chunk  float64 // cycles per prober compute chunk
	cycles float64 // work completed in the current window

	// window-start snapshots
	steal0     sim.Duration
	proberRun0 sim.Duration
	elevated   bool // heavy phase: prober currently at normal weight

	// calibration & output
	coreSpeedScale float64 // probed core capacity, 1024 = nominal
	ema            float64 // smoothed vCPU capacity
	haveEMA        bool
}

func newVcap(s *VSched) *vcap {
	c := &vcap{s: s, banned: make([]bool, s.vm.NumVCPUs())}
	c.beginFn, c.endFn = c.beginWindow, c.endWindow
	return c
}

// setBanned tells vcap which vCPUs rwc fully hid (stacked duplicates);
// sampling halts there so probers cannot cause priority inversion.
func (c *vcap) setBanned(mask []bool) {
	copy(c.banned, mask)
}

func (c *vcap) start() {
	for _, v := range c.s.vm.VCPUs() {
		pv := &vcapVCPU{
			v:              v,
			park:           &guest.Cond{},
			chunk:          c.s.params.NominalSpeed * float64(1*sim.Millisecond) / 4, // ~250us at nominal
			coreSpeedScale: 1024,
		}
		pv.prober = c.s.vm.Spawn(
			fmt.Sprintf("vcap/%d", v.ID()),
			c.proberBehavior(pv),
			guest.WithAffinity(v.ID()),
			guest.WithGroup(c.s.proberGroup),
			guest.WithIdlePolicy(),
		)
		c.per = append(c.per, pv)
	}
	c.s.eng.After(c.s.params.LightEvery, c.beginFn)
}

// proberBehavior: park until a window opens, then compute in chunks,
// counting completed work.
func (c *vcap) proberBehavior(pv *vcapVCPU) guest.Behavior {
	counted := false
	return func(now sim.Time) guest.Segment {
		if counted {
			pv.cycles += pv.chunk
			counted = false
		}
		if !c.sampling || c.banned[pv.v.ID()] {
			return guest.Wait(pv.park)
		}
		// Heavy phase: elevated priority exists only to guarantee the speed
		// calibration a meaningful runtime sample. Once the prober has
		// banked enough CPU time, drop back to SCHED_IDLE so the rest of
		// the window costs the workload nothing — a request unlucky enough
		// to overlap the calibration burst shares its vCPU for ~10ms, not
		// the full window.
		if pv.elevated && pv.prober.TotalRun()-pv.proberRun0 >= c.s.params.SamplePeriod/10 {
			pv.prober.SetIdlePolicy(true, 0)
			pv.elevated = false
		}
		counted = true
		return guest.Compute(pv.chunk)
	}
}

func (c *vcap) beginWindow() {
	c.light++
	c.heavy = c.light >= c.s.params.HeavyEveryLights
	if c.heavy {
		c.light = 0
	}
	c.sampling = true
	for _, pv := range c.per {
		if c.banned[pv.v.ID()] {
			continue
		}
		pv.steal0 = pv.v.Steal()
		pv.proberRun0 = pv.prober.TotalRun()
		pv.cycles = 0
		pv.v.ResetPreemptCount()
		if c.heavy {
			// Normal priority: guaranteed execution without displacing the
			// workload — the speed measurement divides work done by the
			// prober's own CPU time, so it needs some runtime, not a
			// dominant share. The behavior loop de-elevates as soon as the
			// sample is banked.
			pv.prober.SetIdlePolicy(false, guest.WeightNormal)
			pv.elevated = true
		}
		c.s.vm.BroadcastCond(pv.park)
	}
	c.s.eng.After(c.s.params.SamplePeriod, c.endFn)
}

func (c *vcap) endWindow() {
	c.sampling = false
	f := c.s.params.emaFactor()
	for _, pv := range c.per {
		if c.banned[pv.v.ID()] {
			continue
		}
		if c.heavy && pv.elevated {
			pv.prober.SetIdlePolicy(true, 0)
			pv.elevated = false
		}
		stealD := pv.v.Steal() - pv.steal0
		period := c.s.params.SamplePeriod
		share := 1 - float64(stealD)/float64(period)
		if share < 0 {
			share = 0
		}
		if c.heavy {
			// Core speed = work achieved per unit of prober CPU time,
			// normalised to the nominal frequency.
			runD := pv.prober.TotalRun() - pv.proberRun0
			if runD > sim.Duration(period/20) { // need a meaningful sample
				speed := pv.cycles / float64(runD)
				pv.coreSpeedScale = 1024 * speed / c.s.params.NominalSpeed
			}
		}
		sample := pv.coreSpeedScale * share
		if pv.haveEMA {
			pv.ema = pv.ema*f + sample*(1-f)
		} else {
			pv.ema = sample
			pv.haveEMA = true
		}
		if c.s.features.Vcap {
			capv := int64(pv.ema)
			if capv < 1 {
				capv = 1
			}
			pv.v.PublishCapacity(capv)
			c.s.tracer().Emit(c.s.eng.Now(), vtrace.KindCapSample, "vcap",
				int64(pv.v.ID()), capv, int64(share*1024))
		}

		// vact piggybacks on the sampling window (§3.1): the preemption
		// counter and steal delta yield the average inactive period.
		if c.s.features.Vact {
			c.s.vact.onSample(pv.v, stealD, period)
		}
	}
	if c.s.features.RWC {
		c.s.rwc.onCapacityUpdate()
	}
	c.s.eng.After(c.s.params.LightEvery-c.s.params.SamplePeriod, c.beginFn)
}
