package progress

import (
	"sort"
	"sync/atomic"
)

// Sample is one mirrored (name, value) pair. Name is the simulator's dotted
// metric name ("sim.fired"); a publisher emits each name at most
// once per snapshot.
type Sample struct {
	Name  string
	Value float64
}

// Mirror hands complete metric snapshots from the simulation goroutine to
// HTTP scrapers through a single atomic pointer swap. The publisher builds a
// fresh sorted slice at each safepoint and stores it; scrapers only ever
// Load, so a scrape can never observe a half-written snapshot and can never
// slow the publisher down.
type Mirror struct {
	cur atomic.Pointer[[]Sample]
	// scratch is reused across Publish calls by the single publisher; it is
	// never the slice scrapers see.
	scratch []Sample
}

// Publish rebuilds the mirrored snapshot. fill is called with an emit
// function of the shape telemetry.Source.Collect and
// metrics.Registry.VisitNumeric take, so those readers plug in directly;
// every emit(name, value) contributes one sample. The finished set is sorted by name for stable
// exposition order and swapped in atomically. Publish must be called from
// one goroutine at a time (the simulation safepoint), which every caller in
// this repo satisfies.
func (m *Mirror) Publish(fill func(emit func(name string, v float64))) {
	if m == nil {
		return
	}
	buf := m.scratch[:0]
	fill(func(name string, v float64) {
		buf = append(buf, Sample{Name: name, Value: v})
	})
	sort.Slice(buf, func(i, j int) bool { return buf[i].Name < buf[j].Name })
	out := make([]Sample, len(buf))
	copy(out, buf)
	m.scratch = buf
	m.cur.Store(&out)
}

// Load returns the current snapshot, or nil if nothing has been published.
// The returned slice is immutable; callers must not modify it.
func (m *Mirror) Load() []Sample {
	if m == nil {
		return nil
	}
	p := m.cur.Load()
	if p == nil {
		return nil
	}
	return *p
}
