package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.P95() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count=%d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean=%v", m)
	}
	// p50 of 1..100 is 50; bucket error allowed is ~3.1%.
	if p := h.P50(); p < 47 || p > 50 {
		t.Fatalf("p50=%d", p)
	}
	if p := h.P95(); p < 91 || p > 95 {
		t.Fatalf("p95=%d", p)
	}
}

// TestHistogramQuantileEdgeCases pins the degenerate distributions the
// attribution pipeline feeds in routinely: empty profiles, single-span
// tasks, and all-equal components.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty: every accessor must return 0, not panic or garbage.
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v)=%d", q, got)
		}
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read as all zeros")
	}

	// Single sample below the linear-bucket limit: every quantile is exact.
	h = NewHistogram()
	h.Observe(17)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 17 {
			t.Fatalf("single-sample Quantile(%v)=%d want 17", q, got)
		}
	}

	// Single large sample: quantiles agree with each other, stay within the
	// documented relative error, and q>=1 is exact.
	h = NewHistogram()
	h.Observe(1_000_003)
	if h.Quantile(1) != 1_000_003 {
		t.Fatalf("Quantile(1)=%d want exact max", h.Quantile(1))
	}
	p50, p99 := h.P50(), h.P99()
	if p50 != p99 {
		t.Fatalf("single sample: p50=%d p99=%d must match", p50, p99)
	}
	if p50 > 1_000_003 || float64(1_000_003-p50) > 0.032*1_000_003 {
		t.Fatalf("p50=%d outside the 3.2%% bucket error of 1000003", p50)
	}

	// All-equal samples: the distribution is a point mass, so every quantile
	// lands in the same bucket and min==max==mean.
	h = NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(5000)
	}
	if h.P50() != h.P95() || h.P95() != h.P99() {
		t.Fatalf("all-equal quantiles differ: p50=%d p95=%d p99=%d", h.P50(), h.P95(), h.P99())
	}
	if h.Min() != 5000 || h.Max() != 5000 || h.Mean() != 5000 {
		t.Fatalf("all-equal min/max/mean: %d/%d/%v", h.Min(), h.Max(), h.Mean())
	}
	if got := h.Quantile(1); got != 5000 {
		t.Fatalf("all-equal Quantile(1)=%d", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative samples must clamp to zero")
	}
}

func TestHistogramQuantileAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram()
	var samples []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		h.Observe(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := ExactQuantile(samples, q)
		est := h.Quantile(q)
		if exact == 0 {
			continue
		}
		rel := math.Abs(float64(est-exact)) / float64(exact)
		if rel > 0.05 {
			t.Fatalf("q=%v exact=%d est=%d rel=%v", q, exact, est, rel)
		}
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 100; i++ {
		a.Observe(i)
		b.Observe(i + 1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count=%d", a.Count())
	}
	if a.Max() != 1099 || a.Min() != 0 {
		t.Fatalf("merged min/max wrong: %d %d", a.Min(), a.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Max() != 0 {
		t.Fatal("reset failed")
	}
}

// Property: bucketLow(bucketIndex(v)) <= v and the relative error of the
// bucket lower bound is within 1/subBuckets for large v.
func TestBucketProperty(t *testing.T) {
	prop := func(raw int64) bool {
		v := raw
		if v < 0 {
			v = -v
		}
		i := bucketIndex(v)
		lo := bucketLow(i)
		if lo > v {
			return false
		}
		if v >= subBuckets {
			rel := float64(v-lo) / float64(v)
			if rel > 2.0/subBuckets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// loopBucketIndex is bucketIndex with the highest set bit found by a
// bit-by-bit shift loop: the reference the hardware count must reproduce.
func loopBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	x, lz := uint64(v), 0
	for x&(1<<63) == 0 {
		x <<= 1
		lz++
	}
	shift := 63 - lz - subBucketBits
	return (shift+1)*subBuckets + int(v>>uint(shift))&(subBuckets-1)
}

// bucketIndex agrees with the shift-loop reference at every power-of-two
// boundary (and one either side), at the extremes, and on random values.
func TestBucketIndexMatchesLoop(t *testing.T) {
	check := func(v int64) {
		if got, want := bucketIndex(v), loopBucketIndex(v); got != want {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
	for _, v := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		check(v)
	}
	for b := 0; b < 63; b++ {
		p := int64(1) << b
		check(p - 1)
		check(p)
		check(p + 1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(rng.Int63() >> rng.Intn(63))
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(vals []uint32) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(int64(v))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter=%d", c.Value())
	}
}

// ExactQuantile computes the exact quantile of a small sample slice, the
// oracle the Histogram tests check its quantiles against.
func ExactQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func TestExactQuantile(t *testing.T) {
	if ExactQuantile(nil, 0.5) != 0 {
		t.Fatal("empty exact quantile must be 0")
	}
	s := []int64{5, 1, 9, 3, 7}
	if ExactQuantile(s, 0) != 1 || ExactQuantile(s, 1) != 9 {
		t.Fatal("extremes wrong")
	}
	if ExactQuantile(s, 0.5) != 5 {
		t.Fatalf("median=%d", ExactQuantile(s, 0.5))
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated input")
	}
}
