package metrics

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	if r.Counter("a.count") != c {
		t.Fatal("second lookup returned a different counter")
	}
	if r.Counter("a.count").Value() != 1 {
		t.Fatal("counter state lost across lookups")
	}
	g := r.Gauge("a.level")
	g.Set(2.5)
	if r.Gauge("a.level").Value() != 2.5 {
		t.Fatal("gauge state lost across lookups")
	}
	h := r.Histogram("a.lat")
	h.Observe(10)
	if r.Histogram("a.lat").Count() != 1 {
		t.Fatal("histogram state lost across lookups")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name must panic")
		}
	}()
	r.Gauge("x")
}

// flat collects every VisitNumeric reading of r into a map.
func flat(r *Registry) map[string]float64 {
	m := map[string]float64{}
	r.VisitNumeric(func(name string, v float64) { m[name] = v })
	return m
}

func TestSnapshotFlatten(t *testing.T) {
	r := NewRegistry()
	if m := flat(r); len(m) != 0 {
		t.Fatalf("empty registry visited %v", m)
	}
	r.Counter("c").Add(7)
	h := r.Histogram("lat")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	m := flat(r)
	if m["c"] != 7 {
		t.Fatalf("c=%v", m["c"])
	}
	if m["lat.count"] != 1000 {
		t.Fatalf("lat.count=%v", m["lat.count"])
	}
	// Uniform 1..1000: bucketed quantiles within ~6% of exact.
	checks := map[string]float64{"lat.p50": 500, "lat.p95": 950, "lat.p99": 990}
	for k, want := range checks {
		if got := m[k]; got < want*0.94 || got > want*1.06 {
			t.Fatalf("%s=%v want ~%v", k, got, want)
		}
	}
	if m["lat.max"] != 1000 {
		t.Fatalf("lat.max=%v", m["lat.max"])
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatal("zero gauge must read 0")
	}
	g.Set(4)
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge=%v want 2.5", g.Value())
	}
}

// TestSnapshotSortedAndComplete: a snapshot of the registry taken through
// VisitNumeric, sorted by name as -metrics prints it, holds every instrument
// exactly once: counters and gauges under their own names and histograms as
// their six summary fields, and nothing else.
func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(3)
	r.Gauge("m.middle").Set(-1)
	h := r.Histogram("a.first")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	var names []string
	r.VisitNumeric(func(name string, v float64) { names = append(names, name) })
	sort.Strings(names)
	want := []string{
		"a.first.count", "a.first.max", "a.first.mean", "a.first.p50",
		"a.first.p95", "a.first.p99", "m.middle", "z.last",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot names %v, want %v", names, want)
	}
}

// TestVisitNumericMatchesSnapshot: every VisitNumeric reading equals the
// value a snapshot of the instruments' own accessors gives, so the export
// path reports the registry's state and not a copy that can drift from it.
func TestVisitNumericMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(7)
	g := r.Gauge("g")
	g.Set(2.5)
	h := r.Histogram("lat")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	want := map[string]float64{
		"c":         float64(c.Value()),
		"g":         g.Value(),
		"lat.count": float64(h.Count()),
		"lat.mean":  h.Mean(),
		"lat.p50":   float64(h.P50()),
		"lat.p95":   float64(h.P95()),
		"lat.p99":   float64(h.P99()),
		"lat.max":   float64(h.Max()),
	}
	got := flat(r)
	if len(got) != len(want) || len(want) != 2+6 {
		t.Fatalf("visit saw %d readings, snapshot has %d (want 8)", len(got), len(want))
	}
	for k, wv := range want {
		if v, ok := got[k]; !ok || v != wv {
			t.Fatalf("%s: visit=%v (seen %v) snapshot=%v", k, v, ok, wv)
		}
	}
	if got["c"] != 7 || got["g"] != 2.5 || got["lat.count"] != 100 || got["lat.max"] != 100 {
		t.Fatalf("readings wrong: %v", got)
	}
	if p50 := got["lat.p50"]; p50 < 47 || p50 > 53 {
		t.Fatalf("lat.p50=%v, want ~50", p50)
	}
}

// visitSink keeps the closure from being optimized away in the alloc test.
var visitSink float64

// TestVisitNumericAllocBudget pins the sampling fast path at zero
// allocations per steady-state visit (mirroring the engine's
// TestScheduleFireAllocBudget): after the first visit caches the histogram
// sub-key strings, a full pass over the registry must not allocate at all.
func TestVisitNumericAllocBudget(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"a", "b", "c"} {
		r.Counter("ctr." + n).Add(3)
		r.Gauge("g." + n).Set(1.5)
		r.Histogram("h." + n).Observe(100)
	}
	visit := func() {
		r.VisitNumeric(func(name string, v float64) { visitSink += v })
	}
	visit() // warm: builds the histogram sub-key cache
	if avg := testing.AllocsPerRun(1000, visit); avg != 0 {
		t.Fatalf("steady-state VisitNumeric: %v allocs/op, want 0", avg)
	}
}

func BenchmarkVisitNumeric(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter(fmt.Sprintf("ctr.%d", i)).Add(uint64(i))
		r.Gauge(fmt.Sprintf("g.%d", i)).Set(float64(i))
		r.Histogram(fmt.Sprintf("h.%d", i)).Observe(int64(i * 1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.VisitNumeric(func(name string, v float64) { visitSink += v })
	}
}
