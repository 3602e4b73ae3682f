// Package metrics provides the measurement toolkit used by experiments:
// latency histograms with percentile estimation, counters, gauges and
// mean/stddev accumulators. It has no dependency on the simulator so it
// can be unit-tested in isolation and reused by the benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (typically nanoseconds). Buckets are powers of two subdivided linearly,
// HDR-histogram style, giving a bounded relative error (~1/subBuckets) at
// every magnitude with O(1) insert.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	max    int64
	min    int64
}

const (
	subBucketBits = 5 // 32 sub-buckets per power of two => <=3.1% rel. error
	subBuckets    = 1 << subBucketBits
	numBuckets    = (64 - subBucketBits) * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, numBuckets), min: math.MaxInt64}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Highest set bit beyond the sub-bucket range selects the major bucket;
	// the next subBucketBits bits select the minor bucket.
	msb := 63 - bits.LeadingZeros64(uint64(v))
	shift := msb - subBucketBits
	minor := int(v>>uint(shift)) & (subBuckets - 1)
	major := shift + 1
	return major*subBuckets + minor
}

func bucketLow(i int) int64 {
	major := i / subBuckets
	minor := i % subBuckets
	if major == 0 {
		return int64(minor)
	}
	shift := major - 1
	return (int64(subBuckets) + int64(minor)) << uint(shift)
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean of recorded samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded sample, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest recorded sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) of the
// recorded samples, or 0 when empty. The estimate is the lower bound of the
// bucket containing the quantile, so error is bounded by the bucket width.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		// Return the floor of the bucket containing the minimum so that
		// Quantile is monotone in q (interior quantiles are bucket floors).
		return bucketLow(bucketIndex(h.min))
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := bucketLow(i)
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// P50, P95, P99 are common quantile shorthands.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }
func (h *Histogram) P95() int64 { return h.Quantile(0.95) }
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.max = 0
	h.min = math.MaxInt64
}

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.max > h.max {
			h.max = o.max
		}
		if o.min < h.min {
			h.min = o.min
		}
	}
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p95=%d p99=%d max=%d",
		h.total, h.Mean(), h.P50(), h.P95(), h.P99(), h.Max())
}
