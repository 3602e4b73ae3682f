package metrics

// Registry is a named collection of Counters, Gauges and Histograms. It
// replaces scattered ad-hoc counter fields with a uniform interface: callers
// get-or-create instruments by name, keep the returned pointer for the hot
// path, and consumers read every instrument through VisitNumeric.
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

// histKeySet is the cached flattened sub-key strings for one histogram.
type histKeySet struct {
	count, mean, p50, p95, p99, max string
}

// VisitNumeric calls fn once per numeric reading of every instrument:
// counters and gauges under their own names, histograms expanded into
// name.count/mean/p50/p95/p99/max sub-keys. Visit order is unspecified (map
// order); callers needing stable order sort the readings by name.
//
// This is the sampling fast path: it builds no slices or maps, and the
// histogram sub-key strings are cached after the first visit, so a
// steady-state visit performs zero allocations — the property the telemetry
// recorder's per-sample cost rests on.
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
