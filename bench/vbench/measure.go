package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// probe is one reading of the process's clocks and allocator counters.
type probe struct {
	at      time.Time
	cpu     float64 // user+sys seconds of this process, from getrusage
	runtime [5]metrics.Sample
}

// runtimeMetrics are read around every op; each is cumulative.
var runtimeMetrics = [5]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProbe() probe {
	var p probe
	for i, name := range runtimeMetrics {
		p.runtime[i].Name = name
	}
	metrics.Read(p.runtime[:])
	p.cpu = rusageCPU()
	p.at = time.Now()
	return p
}

func rusageCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sample is what one op execution cost.
type sample struct {
	wall, cpu  float64 // seconds
	allocs     float64 // heap objects allocated
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // runtime/metrics estimate of GC CPU seconds
	totalCPU   float64 // runtime/metrics estimate of all CPU seconds
}

// since returns the cost accrued between p0 and a new reading.
func since(p0 probe) sample {
	p1 := readProbe()
	val := func(i int) float64 {
		a, b := p0.runtime[i].Value, p1.runtime[i].Value
		if a.Kind() == metrics.KindUint64 {
			return float64(b.Uint64() - a.Uint64())
		}
		return b.Float64() - a.Float64()
	}
	return sample{
		wall:       p1.at.Sub(p0.at).Seconds(),
		cpu:        p1.cpu - p0.cpu,
		allocs:     val(0),
		allocBytes: val(1),
		gcCycles:   val(2),
		gcCPU:      val(3),
		totalCPU:   val(4),
	}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default 'exclusive' method), so the
// spread tool reads exactly as that function does. Needs len(xs) >= 2.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// percentile returns the p-th percentile (0..100) of sorted xs by nearest
// rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}
