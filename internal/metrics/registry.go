package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is a named collection of Counters, Gauges and Histograms. It
// replaces scattered ad-hoc counter fields with a uniform interface: callers
// get-or-create instruments by name, keep the returned pointer for the hot
// path, and consumers take a Snapshot with stable (sorted) ordering.
//
// A Registry is not goroutine-safe; like the simulator itself, each engine's
// components share one registry on one goroutine.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// histKeys caches each histogram's flattened sub-key strings
	// (name.count, name.mean, ...) so VisitNumeric never concatenates on
	// the steady-state path.
	histKeys map[string]histKeySet
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as two different instrument kinds panics —
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFresh(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFresh(name, "histogram")
	h := NewHistogram()
	r.hists[name] = h
	return h
}

// checkFresh panics if name is already registered as another instrument kind.
func (r *Registry) checkFresh(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic("metrics: " + name + " already registered as a counter")
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic("metrics: " + name + " already registered as a gauge")
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic("metrics: " + name + " already registered as a histogram")
	}
}

// SnapshotEntry is one instrument's state at snapshot time. Kind is
// "counter", "gauge" or "histogram"; histogram entries carry the summary
// fields, scalar entries only Value.
type SnapshotEntry struct {
	Name  string
	Kind  string
	Value float64
	// Histogram summary (Kind == "histogram" only).
	Count              uint64
	Mean               float64
	P50, P95, P99, Max int64
}

// Snapshot is the registry's full state in sorted-name order. Equal
// registries always produce byte-identical snapshots, which is what lets
// snapshots appear in determinism-checked output.
type Snapshot []SnapshotEntry

// Snapshot captures every instrument, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, SnapshotEntry{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, SnapshotEntry{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, SnapshotEntry{
			Name: name, Kind: "histogram",
			Value: float64(h.Count()),
			Count: h.Count(), Mean: h.Mean(),
			P50: h.P50(), P95: h.P95(), P99: h.P99(), Max: h.Max(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the snapshot as aligned "name value" lines, histograms with
// their summary stats — the -metrics output of cmd/vschedsim.
func (s Snapshot) String() string {
	w := 0
	for _, e := range s {
		if len(e.Name) > w {
			w = len(e.Name)
		}
	}
	var b strings.Builder
	for _, e := range s {
		switch e.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-*s  n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
				w, e.Name, e.Count, e.Mean, e.P50, e.P95, e.P99, e.Max)
		case "gauge":
			fmt.Fprintf(&b, "%-*s  %g\n", w, e.Name, e.Value)
		default:
			fmt.Fprintf(&b, "%-*s  %.0f\n", w, e.Name, e.Value)
		}
	}
	return b.String()
}

// histKeySet is the cached flattened sub-key strings for one histogram.
type histKeySet struct {
	count, mean, p50, p95, p99, max string
}

// VisitNumeric calls fn once per numeric reading of every instrument:
// counters and gauges under their own names, histograms expanded into
// name.count/mean/p50/p95/p99/max sub-keys. Visit order is unspecified (map
// order); callers needing stable order should use Snapshot.
//
// This is the sampling fast path: unlike Snapshot it builds no slices or
// maps, and the histogram sub-key strings are cached after the first visit,
// so a steady-state visit performs zero allocations — the property the
// telemetry recorder's per-sample cost rests on.
func (r *Registry) VisitNumeric(fn func(name string, v float64)) {
	for name, c := range r.counters {
		fn(name, float64(c.Value()))
	}
	for name, g := range r.gauges {
		fn(name, g.Value())
	}
	for name, h := range r.hists {
		k, ok := r.histKeys[name]
		if !ok {
			if r.histKeys == nil {
				r.histKeys = make(map[string]histKeySet)
			}
			k = histKeySet{
				count: name + ".count",
				mean:  name + ".mean",
				p50:   name + ".p50",
				p95:   name + ".p95",
				p99:   name + ".p99",
				max:   name + ".max",
			}
			r.histKeys[name] = k
		}
		fn(k.count, float64(h.Count()))
		fn(k.mean, h.Mean())
		fn(k.p50, float64(h.P50()))
		fn(k.p95, float64(h.P95()))
		fn(k.p99, float64(h.P99()))
		fn(k.max, float64(h.Max()))
	}
}
