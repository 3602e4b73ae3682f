package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestVariateBounds checks, property-based, that every variate helper
// respects its contract for arbitrary parameters: Exp never negative, Pareto
// within [min, max].
func TestVariateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	if err := quick.Check(func(meanRaw int64) bool {
		mean := Duration(meanRaw % int64(10*Second))
		v := Exp(rng, mean)
		return v >= 0
	}, nil); err != nil {
		t.Error(err)
	}

	if err := quick.Check(func(sRaw uint8, a, b int64) bool {
		shape := 0.5 + float64(sRaw%40)/10 // 0.5 .. 4.4
		min := Duration(1 + abs64(a)%int64(Second))
		max := min + Duration(abs64(b)%int64(Second))
		v := Pareto(rng, shape, min, max)
		return v >= min && v <= max
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestParetoMeanMatchesTheory: the bounded Pareto used for heavy-tailed
// services must have a sample mean near the truncated-distribution theory
// value, or calibrated service means drift.
func TestParetoMeanMatchesTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const shape = 1.6
	min, max := Duration(400*Microsecond), Duration(6*Millisecond)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(Pareto(rng, shape, min, max))
	}
	got := sum / n
	// E[X] for a Pareto(a, m) capped at c: integrate the density up to c
	// plus c times the tail mass beyond it.
	a, m, c := shape, float64(min), float64(max)
	body := a * math.Pow(m, a) / (a - 1) * (math.Pow(m, 1-a) - math.Pow(c, 1-a))
	tail := c * math.Pow(m/c, a)
	want := body + tail
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("sample mean %.0f vs theoretical %.0f", got, want)
	}
}

func abs64(v int64) int64 {
	if v == math.MinInt64 {
		return math.MaxInt64
	}
	if v < 0 {
		return -v
	}
	return v
}
