package core

import (
	"vsched/internal/guest"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// vact probes vCPU activity (§3.1): the average inactive period ("vCPU
// latency", how quickly a vCPU can respond), the average active period, and
// a near-real-time state query built on tick heartbeats (implemented in
// VSched.QueryState). It owns no prober tasks — the kernel instrumentation
// (steal-jump counting in the guest tick handler) plus vcap's sampling
// windows give it everything it needs.
type vact struct {
	s   *VSched
	per []vactVCPU
}

type vactVCPU struct {
	latencyEMA float64 // average inactive period, ns
	activeEMA  float64 // average active period, ns
	have       bool
}

func newVact(s *VSched) *vact {
	return &vact{s: s, per: make([]vactVCPU, s.vm.NumVCPUs())}
}

// onSample consumes one vcap sampling window for v: stealD is the steal
// accumulated over the window. The kernel's preemption counter (reset at
// window start) says how many inactive periods the steal is spread over.
func (a *vact) onSample(v *guest.VCPU, stealD, period sim.Duration) {
	preempts := v.ResetPreemptCount()
	pv := &a.per[v.ID()]

	var inactive, active float64
	switch {
	case preempts == 0 && stealD < period/50:
		// Effectively dedicated: no measurable inactivity.
		inactive, active = 0, float64(period)
	case preempts == 0:
		// Stolen time but no detected jump (one long ongoing preemption):
		// treat the whole window's steal as one inactive period.
		inactive, active = float64(stealD), float64(period-stealD)
	default:
		inactive = float64(stealD) / float64(preempts)
		active = float64(period-stealD) / float64(preempts)
	}

	f := a.s.params.emaFactor()
	if pv.have {
		pv.latencyEMA = float64(pv.latencyEMA*f) + float64(inactive*(1-f))
		pv.activeEMA = float64(pv.activeEMA*f) + float64(active*(1-f))
	} else {
		pv.latencyEMA, pv.activeEMA = inactive, active
		pv.have = true
	}
	v.PublishActivity(sim.Duration(pv.latencyEMA), sim.Duration(pv.activeEMA))
	a.s.tracer().Emit(a.s.eng.Now(), vtrace.KindActSample, "vact",
		int64(v.ID()), int64(pv.latencyEMA), int64(pv.activeEMA))
}
