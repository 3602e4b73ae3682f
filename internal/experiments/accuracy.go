package experiments

import (
	"fmt"

	"vsched/internal/core"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/metrics"
	"vsched/internal/sim"
)

// Prober-accuracy telemetry: run vcap/vact against contention patterns with
// known host-side ground truth and report how far the published estimates
// sit from reality. This is the calibration check behind every §5 result —
// the techniques are only as good as the abstraction they consume.
//
// Ground truth comes from host accounting the guest cannot see: the vCPU
// entity's run/steal clocks give the true capacity share, and the measured
// lengths of its steal intervals give the true inactive period ("vCPU
// latency"). Estimates are what the probers published to the vCPU. Errors
// are reported as MAE over the sampling series and also parked in the VM's
// metrics registry under probeacc.* so harness artifacts carry them.

// accSampler pairs prober estimates with host ground truth for one vCPU.
type accSampler struct {
	v   *guest.VCPU
	ent *host.Entity

	// Current sampling window: host run clock and steal-interval stats.
	run0       sim.Duration
	wall0      sim.Time
	inSteal    bool
	stealStart sim.Time
	intSum     sim.Duration
	intN       int

	capEst, capTrue, capErr metrics.Summary
	latEst, latTrue, latErr metrics.Summary
}

func newAccSampler(v *guest.VCPU) *accSampler {
	s := &accSampler{v: v, ent: v.Entity()}
	s.ent.AddObserver(func(now sim.Time, from, to host.EntityState) {
		fromSteal := from == host.Runnable || from == host.Throttled
		toSteal := to == host.Runnable || to == host.Throttled
		switch {
		case !fromSteal && toSteal:
			s.inSteal = true
			s.stealStart = now
		case fromSteal && !toSteal:
			if s.inSteal {
				s.intSum += now.Sub(s.stealStart)
				s.intN++
				s.inSteal = false
			}
		}
	})
	return s
}

// reset opens a fresh sampling window at the current time.
func (s *accSampler) reset(now sim.Time) {
	s.run0 = s.ent.RunTime()
	s.wall0 = now
	s.intSum, s.intN = 0, 0
	if s.inSteal {
		s.stealStart = now // count only the in-window part
	}
}

// sample closes the window: record estimate vs truth, reopen.
func (s *accSampler) sample(now sim.Time) {
	wall := now.Sub(s.wall0)
	if wall <= 0 {
		return
	}
	// Capacity (flat cluster: truth is exactly the run share of the thread).
	trueCap := 1024 * float64(s.ent.RunTime()-s.run0) / float64(wall)
	estCap := float64(s.v.Capacity())
	s.capTrue.Add(trueCap)
	s.capEst.Add(estCap)
	s.capErr.Add(abs(estCap - trueCap))

	// vCPU latency: truth is the mean steal-interval length in the window
	// (0 when the vCPU was effectively dedicated).
	var trueLat float64
	intSum, intN := s.intSum, s.intN
	if s.inSteal {
		intSum += now.Sub(s.stealStart)
		intN++
	}
	if intN > 0 {
		trueLat = float64(intSum) / float64(intN)
	}
	estLat := float64(s.v.Latency())
	s.latTrue.Add(trueLat)
	s.latEst.Add(estLat)
	s.latErr.Add(abs(estLat - trueLat))

	s.reset(now)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ProbeAccuracy measures vcap/vact estimation error against host ground
// truth under three contention patterns with different inactive-period
// scales.
func ProbeAccuracy(o Options) *Report {
	rep := &Report{
		ID:    "probeacc",
		Title: "Prober accuracy: vcap/vact estimates vs host ground truth",
		Header: []string{"scenario", "samples",
			"cap est", "cap true", "cap MAE",
			"lat est(ms)", "lat true(ms)", "lat MAE(ms)"},
	}
	scenarios := []struct {
		name    string
		on, off sim.Duration
	}{
		// Fine-grained timeshare: short inactive periods, ~50% capacity.
		{"balanced-5ms", 5 * sim.Millisecond, 5 * sim.Millisecond},
		// Coarse bursts: same capacity, 8x longer inactive periods.
		{"bursty-40ms", 40 * sim.Millisecond, 40 * sim.Millisecond},
		// Heavy contention: ~25% capacity, long inactive periods.
		{"heavy-30/10", 30 * sim.Millisecond, 10 * sim.Millisecond},
	}
	for _, sc := range scenarios {
		c := newFlatCluster(o, 1, 2, 1)
		d := deployFeatures(c, "vm-"+sc.name, c.firstThreads(1),
			core.Features{Vcap: true, Vact: true})
		dutyContender(c, c.h.Thread(0), sc.on, sc.off, 0)
		// A best-effort hog keeps the vCPU busy, so the entity's run/steal
		// clocks cover the whole timeline (and vact's steal-jump counter has
		// a heartbeat to work with).
		d.vm.Spawn("hog", func(sim.Time) guest.Segment {
			return guest.Compute(2e6)
		}, guest.WithIdlePolicy(), guest.StartOn(0))

		s := newAccSampler(d.vm.VCPU(0))
		c.eng.RunFor(o.warm(6 * sim.Second))
		s.reset(c.eng.Now())
		every := o.scaled(2 * sim.Second)
		const samples = 10
		for i := 0; i < samples; i++ {
			c.eng.RunFor(every)
			s.sample(c.eng.Now())
		}

		rep.Add(sc.name, fmt.Sprintf("%d", int(s.capErr.N())),
			f1(s.capEst.Mean()), f1(s.capTrue.Mean()), f1(s.capErr.Mean()),
			f2(s.latEst.Mean()/1e6), f2(s.latTrue.Mean()/1e6), f2(s.latErr.Mean()/1e6))

		// Park the summary in the registry so -metrics and harness
		// artifacts carry prober accuracy without re-running the analysis.
		reg := d.vm.Metrics()
		reg.Gauge("probeacc.cap_mae").Set(s.capErr.Mean())
		reg.Gauge("probeacc.lat_mae_ms").Set(s.latErr.Mean() / 1e6)
	}
	rep.Notef("truth from host entity run/steal accounting on a flat host; MAE over %d samples/scenario", 10)
	return rep
}
