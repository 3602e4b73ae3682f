package core

import (
	"vsched/internal/guest"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// bvsSelect implements biased vCPU selection (§3.2, Fig. 8): small
// latency-sensitive tasks are placed where their extended runqueue latency
// is minimal. It is installed as the guest's SelectCPU hook; returning nil
// falls back to the stock CFS heuristic.
//
// The Fig. 8 decision path, per candidate vCPU (first fit wins):
//
//	capacity >= median (avoid runqueue saturation on weak vCPUs)
//	  runqueue empty (guest idle):
//	    low vCPU latency (within 2x of the best class, see
//	    lowLatencyThreshold) AND prolonged idleness -> pick (wakes quickly)
//	  runqueue holds only sched_idle tasks:
//	    state active AND recently became active  -> pick (runs immediately,
//	        fits within the remaining active period — the "blue path")
//	    state inactive AND inactive for long AND low latency -> pick
//	        (about to be rescheduled)
func (s *VSched) bvsSelect(t *guest.Task, prev *guest.VCPU) *guest.VCPU {
	if !t.LatencySensitive || t.Util() > s.params.SmallTaskUtil {
		return nil
	}
	s.bvsCalls.Inc()
	medCap := s.medianCapacity()
	lowLat := s.lowLatencyThreshold()
	n := s.vm.NumVCPUs()
	start := 0
	if prev != nil {
		start = prev.ID()
	}
	// First-fit scan beginning at the previous CPU (cache affinity), then
	// wrapping: aggressive and cheap, unconstrained by LLC domains. The
	// best-fit ablation instead scans everything and picks the acceptable
	// vCPU with the lowest probed latency.
	var best *guest.VCPU
	var scanned int64
	var candMask int64 // vCPUs (id < 64) passing the capacity filter
	for k := 0; k < n; k++ {
		v := s.vm.VCPU((start + k) % n)
		if !s.allowedForTask(t, v) {
			continue
		}
		scanned++
		// High-capacity filter with 10% tolerance: measurement noise must
		// not disqualify vCPUs effectively at the median.
		if v.Capacity()*10 < medCap*9 {
			continue
		}
		if v.ID() < 64 {
			candMask |= 1 << v.ID()
		}
		if s.bvsAcceptable(v, lowLat) {
			if !s.bvsBestFit {
				best = v
				break
			}
			if best == nil || v.Latency() < best.Latency() {
				best = v
			}
		}
	}
	chosen := int64(-1)
	if best != nil {
		s.bvsHits.Inc()
		chosen = int64(best.ID())
	}
	s.tracer().Emit(s.eng.Now(), vtrace.KindBVSPlace, t.Name(), chosen, scanned, candMask)
	return best
}

// allowedForTask respects the task's cgroup mask (rwc bans) from hook
// context.
func (s *VSched) allowedForTask(t *guest.Task, v *guest.VCPU) bool {
	return t.Group().Allowed(v.ID())
}

// bvsAcceptable evaluates the activity conditions of Fig. 8 for one vCPU.
func (s *VSched) bvsAcceptable(v *guest.VCPU, lowLat sim.Duration) bool {
	now := s.eng.Now()
	lowLatency := v.Latency() <= lowLat
	switch {
	case v.GuestIdle():
		// Long-idled vCPUs in overcommitted hosts have had their host slice
		// replenished / their contender is mid-burst elsewhere; paired with
		// low probed latency they respond fastest.
		longIdle := now.Sub(v.IdleSince()) >= s.vm.Params().TickPeriod
		return lowLatency && longIdle

	case v.OnlyIdlePolicy():
		if !s.bvsStateCheck {
			// Ablation: accept any low-latency vCPU serving only
			// best-effort work, blind to whether it is active right now.
			return lowLatency
		}
		st, since := s.QueryState(v)
		switch st {
		case StateActive:
			// Recently became active: the remaining active period likely
			// covers a small task (blue path).
			recent := now.Sub(since) <= maxDur(v.AvgActive()/2, s.vm.Params().TickPeriod)
			return recent
		case StateInactive:
			// Inactive for most of its typical inactive period: it should
			// be rescheduled soon.
			inactiveFor := now.Sub(since)
			return lowLatency && v.Latency() > 0 && inactiveFor >= sim.Duration(float64(v.Latency())*0.75)
		}
		return false

	default:
		return false
	}
}

func maxDur(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}
