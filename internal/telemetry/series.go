package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Point is one sample: virtual-time nanoseconds and a value.
type Point struct {
	T int64
	V float64
}

// Bucket is one aggregate: min/max/sum/count over a contiguous run of
// samples spanning [T0, T1] virtual nanoseconds. A one-sample bucket holds
// its sample bit for bit (Sum and Mean are the value itself).
type Bucket struct {
	T0    int64   `json:"t0"`
	T1    int64   `json:"t1"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count uint32  `json:"count"`
}

// Mean returns the bucket's mean value (0 when empty).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

func (b *Bucket) add(t int64, v float64) {
	if b.Count == 0 {
		*b = Bucket{T0: t, T1: t, Min: v, Max: v, Sum: v, Count: 1}
		return
	}
	if v < b.Min {
		b.Min = v
	}
	if v > b.Max {
		b.Max = v
	}
	b.T1 = t
	b.Sum += v
	b.Count++
}

// merge folds next, the bucket that follows b in time, into b.
func (b *Bucket) merge(next Bucket) {
	if next.Min < b.Min {
		b.Min = next.Min
	}
	if next.Max > b.Max {
		b.Max = next.Max
	}
	b.T1 = next.T1
	b.Sum += next.Sum
	b.Count += next.Count
}

// Series is one named time series under a Recorder: at most Config.Buckets
// buckets of stride samples each, oldest first. The stride starts at 1, so
// the series holds every sample exactly until it fills; then adjacent pairs
// merge and the stride doubles. Memory is bounded for any run length (see
// MaxSeriesBytes), and the buckets always cover every sample exactly once.
type Series struct {
	Name string
	// Volatile marks a series whose values depend on wall-clock or allocator
	// state (the self-observability throughput series). Volatile series are
	// excluded from deterministic snapshots and byte-identity checks.
	Volatile bool

	cfg *Config

	// buckets holds the whole history; every bucket but the last holds
	// exactly stride samples.
	buckets []Bucket
	stride  uint64

	count    uint64
	lastT    int64
	lastV    float64
	min, max float64
	sum      float64
}

func newSeries(name string, volatile bool, cfg *Config) *Series {
	return &Series{
		Name:     name,
		Volatile: volatile,
		cfg:      cfg,
		stride:   1,
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// Append records one sample. Timestamps must be non-decreasing (the sampler
// walks the sim clock forward); a regressing timestamp panics, because it
// would silently break the buckets' time order.
func (s *Series) Append(t int64, v float64) {
	if s.count > 0 && t < s.lastT {
		panic(fmt.Sprintf("telemetry: series %s: timestamp %d before %d", s.Name, t, s.lastT))
	}
	s.count++
	s.lastT, s.lastV = t, v
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}

	n := len(s.buckets)
	if n == s.cfg.Buckets && uint64(s.buckets[n-1].Count) == s.stride {
		s.halve()
		n = len(s.buckets)
	}
	if n > 0 && uint64(s.buckets[n-1].Count) < s.stride {
		s.buckets[n-1].add(t, v)
		return
	}
	if n == cap(s.buckets) {
		// Grow by doubling, clipped at the configured size, so the held
		// capacity never exceeds Buckets (MaxSeriesBytes relies on it).
		grown := make([]Bucket, n, min(max(2*n, 8), s.cfg.Buckets))
		copy(grown, s.buckets)
		s.buckets = grown
	}
	s.buckets = append(s.buckets, Bucket{})
	s.buckets[n].add(t, v)
}

// halve merges adjacent bucket pairs in place and doubles the stride. This
// is what bounds memory for ANY horizon: the whole history always fits
// Buckets buckets, at whatever resolution that requires.
func (s *Series) halve() {
	bs := s.buckets
	half := bs[:0]
	for i := 0; i < len(bs); i += 2 {
		b := bs[i]
		if i+1 < len(bs) {
			b.merge(bs[i+1])
		}
		half = append(half, b)
	}
	s.buckets = half
	s.stride *= 2
}

// Count returns the number of samples ever appended.
func (s *Series) Count() uint64 { return s.count }

// Last returns the most recent sample.
func (s *Series) Last() Point { return Point{T: s.lastT, V: s.lastV} }

// Min, Max and Mean summarize every sample ever appended.
func (s *Series) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

func (s *Series) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

func (s *Series) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Buckets returns a copy of the full history, oldest first. Bucket counts
// sum to Count exactly; while Count <= Config.Buckets each bucket is one
// sample.
func (s *Series) Buckets() []Bucket { return slices.Clone(s.buckets) }

// Bytes returns the series' current memory footprint: the bucket array by
// capacity, since that is what the process actually holds, plus the name
// and fixed overhead.
func (s *Series) Bytes() int {
	return len(s.Name) + seriesFixedBytes + cap(s.buckets)*bucketBytes
}

const (
	// bucketBytes is sizeof(Bucket): 2 int64 + 3 float64 + uint32, padded.
	bucketBytes = 48
	// seriesFixedBytes approximates the struct header and slice header.
	seriesFixedBytes = 256
)

// quantileOf returns the q-quantile of bucket means, weighted by bucket
// count. While every bucket is one sample it is the exact quantile of the
// samples; after the store has merged it is a bounded-memory estimate.
// Deterministic: ties sort by value.
func quantileOf(bs []Bucket, q float64) float64 {
	type wv struct {
		v float64
		n uint64
	}
	var items []wv
	var total uint64
	for _, b := range bs {
		if b.Count == 0 {
			continue
		}
		items = append(items, wv{b.Mean(), uint64(b.Count)})
		total += uint64(b.Count)
	}
	if total == 0 {
		return 0
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for _, it := range items {
		seen += it.n
		if seen >= rank {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// Quantile returns the q-quantile of every sample ever appended, from the
// buckets (each bucket contributes its mean, weighted by its count).
func (s *Series) Quantile(q float64) float64 { return quantileOf(s.buckets, q) }
