package cloudgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vsched/internal/sim"
)

// differentialScale is the number of random draws per case and the ulp
// radius of the size guard sweep: 10^6 and 2^12, or 10^5 and 2^6 under
// -short or -race.
func differentialScale() (draws int, ulps int64) {
	if testing.Short() || raceEnabled {
		return 1e5, 1 << 6
	}
	return 1e6, 1 << 12
}

// TestSizeThresholdsDifferential checks the guard-table size against the
// inversion as one expression, math.Pow floored and clamped, on random
// draws per (Alpha, bounds) and on every float within a radius of ulps
// around each guard (see differentialScale). Bounds [1,256] reach past the
// last of the maxSizeGuards guards.
func TestSizeThresholdsDifferential(t *testing.T) {
	draws, ulps := differentialScale()
	for i, alpha := range []float64{0.5, 1, 1.4, 2, 3.7} {
		t.Run(fmt.Sprint("alpha=", alpha), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(i)))
			sizeDifferential(t, rng, alpha, draws, ulps)
		})
	}
}

func sizeDifferential(t *testing.T, rng *rand.Rand, alpha float64, draws int, ulps int64) {
	for _, b := range [][2]int{{1, 1}, {1, 32}, {2, 8}, {1, 256}} {
		s := newSizeSampler(SizeDist{MinVCPUs: b[0], MaxVCPUs: b[1], Alpha: alpha})
		la, ha := math.Pow(float64(b[0]), alpha), math.Pow(float64(b[1]), alpha)
		check := func(x float64) {
			want := min(max(int(math.Floor(math.Pow(x, -1/alpha))), b[0]), b[1])
			if got := s.pareto(x); got != want {
				t.Fatalf("alpha %v bounds %v: x=%v (bits %#x) gives size %d, math.Pow gives %d",
					alpha, b, x, math.Float64bits(x), got, want)
			}
		}
		for i := 0; i < draws; i++ {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			check(-(float64(u*ha) - float64(u*la) - ha) / (ha * la))
		}
		edges := []float64{s.top}
		for _, g := range s.guards {
			edges = append(edges, g.hi, g.lo)
		}
		for _, x := range edges {
			bits := int64(math.Float64bits(x))
			for d := -ulps; d <= ulps; d++ {
				if bits+d >= 0 {
					check(math.Float64frombits(uint64(bits + d)))
				}
			}
		}
	}
}

// TestThinningDifferential checks the bucketed thinning decision against the
// rate as one expression, on random (u, t) draws per (amplitude, phase,
// horizon) (see differentialScale), and at every bucket edge ±1 ns of every
// period with u*rateMax at the bucket's bounds ±1 ulp.
func TestThinningDifferential(t *testing.T) {
	draws, _ := differentialScale()
	for i, amp := range []float64{0, 0.3, 0.6, 0.99} {
		t.Run(fmt.Sprint("A=", amp), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(i)))
			thinningDifferential(t, rng, amp, draws)
		})
	}
}

func thinningDifferential(t *testing.T, rng *rand.Rand, amp float64, draws int) {
	for _, phase := range []float64{0, 1.3, -math.Pi} {
		for _, periods := range []int{1, 2, 5, 10} {
			cfg := DefaultConfig()
			cfg.DiurnalAmplitude, cfg.DiurnalPhase = amp, phase
			cfg.Horizon = sim.Duration(periods) * cfg.DiurnalPeriod
			th := newThinner(cfg)
			check := func(at sim.Time, p float64) {
				rate := cfg.BaseRate * (1 + float64(cfg.DiurnalAmplitude*
					math.Sin(2*math.Pi*float64(at)/float64(cfg.DiurnalPeriod)+cfg.DiurnalPhase))) / float64(Hour)
				if got, want := th.accept(at, p), !(p > rate); got != want {
					t.Fatalf("A=%v phase=%v horizon=%v: accept(%d, %v) = %v, rate %v wants %v",
						amp, phase, cfg.Horizon, at, p, got, rate, want)
				}
			}
			for i := 0; i < draws; i++ {
				check(sim.Time(rng.Int63n(int64(cfg.Horizon))), rng.Float64()*th.rateMax)
			}
			for m := 0; m < periods; m++ {
				for i := 0; i <= thinBuckets; i++ {
					for d := sim.Time(-1); d <= 1; d++ {
						at := sim.Time(m)*sim.Time(cfg.DiurnalPeriod) + sim.Time(i)*sim.Time(th.width) + d
						if at < 0 || at >= sim.Time(cfg.Horizon) {
							continue
						}
						b := th.bounds[sim.Duration(at)%th.period/th.width]
						for _, p := range []float64{b.lo, b.hi} {
							check(at, math.Nextafter(p, 0))
							check(at, p)
							check(at, math.Nextafter(p, math.Inf(1)))
						}
					}
				}
			}
		}
	}
}

// TestGenerateFastPathHitRate pins how rarely the region trace needs the
// full expressions: under 1% of thinning proposals evaluate the sine and
// under 0.1% of size draws call math.Pow, so an edit that routes every draw
// through the slow path fails here even though the bytes stay the same.
func TestGenerateFastPathHitRate(t *testing.T) {
	tr, st := generate(42, regionConfig())
	t.Logf("%d of %d proposals evaluated the sine, %d of %d size draws called math.Pow",
		st.sines, st.proposals, st.pows, len(tr.VMs))
	if st.proposals < len(tr.VMs) || 100*st.sines >= st.proposals {
		t.Errorf("%d of %d thinning proposals evaluated the sine, want under 1%%", st.sines, st.proposals)
	}
	if 1000*st.pows >= len(tr.VMs) {
		t.Errorf("%d of %d size draws called math.Pow, want under 0.1%%", st.pows, len(tr.VMs))
	}
}
