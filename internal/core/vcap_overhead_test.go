package core

import (
	"testing"

	"vsched/internal/guest"
	"vsched/internal/sim"
)

// TestHeavyProberDeElevates pins the fig21 overhead property at the
// mechanism level: during a heavy calibration window the prober is elevated
// to normal weight only until it banks enough runtime for the speed
// measurement (SamplePeriod/10), then drops back to SCHED_IDLE. A co-running
// normal-weight task on the same vCPU must therefore lose only ~10% of one
// window every heavy period, not half of it.
func TestHeavyProberDeElevates(t *testing.T) {
	r := newRig(t, 1, 2, 1, 2, Features{Vcap: true})

	// A CPU-bound normal task pinned on vCPU 0 competes with the prober.
	var ran sim.Duration
	var mark sim.Time
	task := r.vm.Spawn("hog", func(now sim.Time) guest.Segment {
		return guest.Compute(1e7) // ~10ms chunks at speed 1.0
	}, guest.WithAffinity(0))

	// Warm up past the first light window, then bracket exactly one heavy
	// window: heavy fires after HeavyEveryLights light windows, i.e. the
	// 5th sampling at t = 5*LightEvery.
	p := r.s.Params()
	heavyStart := sim.Time(0).Add(5 * p.LightEvery)
	r.eng.At(heavyStart, func() {
		mark = r.eng.Now()
		ran = task.TotalRun()
	})
	var lost sim.Duration
	r.eng.At(heavyStart.Add(p.SamplePeriod), func() {
		window := r.eng.Now().Sub(mark)
		got := task.TotalRun() - ran
		lost = window - got
	})
	r.eng.RunFor(6 * p.LightEvery)

	if lost <= 0 {
		t.Fatal("expected the heavy prober to take some runtime from the hog")
	}
	// Pre-fix behaviour: the prober held normal weight for the whole window
	// and took ~50% of it. With de-elevation it takes the calibration burst
	// (~SamplePeriod/10) plus scheduling slop.
	if lost > p.SamplePeriod/4 {
		t.Fatalf("heavy prober stole %v of a %v window; want <= %v",
			lost, p.SamplePeriod, p.SamplePeriod/4)
	}
	// And the calibration must still have produced an accurate capacity.
	r.eng.RunFor(2 * sim.Second)
	if c := r.vm.VCPU(0).Capacity(); c < 800 {
		t.Fatalf("calibrated capacity=%d want ~1024 despite de-elevation", c)
	}
}

// TestLowLatencyThresholdLadder pins the bvs low-latency gate against the
// paper's category ladders: the gate must admit only the best latency class,
// whatever the mix, while accepting a homogeneous class whole.
func TestLowLatencyThresholdLadder(t *testing.T) {
	cases := []struct {
		name   string
		lats   []sim.Duration // published per-vCPU latencies
		accept []bool         // whether each should pass the gate
	}{
		{"hpvm ladder (0/3/9ms): dedicated only",
			[]sim.Duration{0, 3 * sim.Millisecond, 9 * sim.Millisecond},
			[]bool{true, false, false}},
		{"fig14 ladder (3/6ms): low class only",
			[]sim.Duration{3 * sim.Millisecond, 6 * sim.Millisecond, 3 * sim.Millisecond},
			[]bool{true, false, true}},
		{"rcvm ladder (3/9/15ms): low class only",
			[]sim.Duration{3 * sim.Millisecond, 9 * sim.Millisecond, 15 * sim.Millisecond},
			[]bool{true, false, false}},
		{"homogeneous noisy class accepted whole",
			[]sim.Duration{2700 * sim.Microsecond, 3400 * sim.Microsecond, 3 * sim.Millisecond},
			[]bool{true, true, true}},
		{"near-zero homogeneous accepted whole",
			[]sim.Duration{0, 200 * sim.Microsecond, 900 * sim.Microsecond},
			[]bool{true, true, true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, len(tc.lats), 1, len(tc.lats), Features{})
			for i, l := range tc.lats {
				r.vm.VCPU(i).PublishActivity(l, 10*sim.Millisecond)
			}
			thresh := r.s.lowLatencyThreshold()
			for i, l := range tc.lats {
				if got := l <= thresh; got != tc.accept[i] {
					t.Errorf("vCPU %d latency %v vs threshold %v: accepted=%v want %v",
						i, l, thresh, got, tc.accept[i])
				}
			}
		})
	}
}
