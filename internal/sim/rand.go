package sim

import (
	"math"
	"math/rand"
)

// Random-variate helpers used by workload generators and the cache model.
// They all draw from the engine's seeded source so results are reproducible.

// Exp returns an exponentially distributed duration with the given mean.
func Exp(rng *rand.Rand, mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	return Duration(rng.ExpFloat64() * float64(mean))
}

// Pareto returns a bounded Pareto-distributed duration with the given shape
// and minimum; values are capped at max. Heavy-tailed service times in
// latency experiments use this.
func Pareto(rng *rand.Rand, shape float64, min, max Duration) Duration {
	if shape <= 0 || min <= 0 {
		return min
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	v := float64(min) / math.Pow(u, 1/shape)
	if v > float64(max) {
		v = float64(max)
	}
	return Duration(v)
}
