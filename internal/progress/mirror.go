package progress

import (
	"sort"
	"sync/atomic"
)

// Sample is one mirrored (name, value) pair. Name is the simulator's dotted
// metric name ("fleet.macro.placed"); a publisher emits each name at most
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
	cur       atomic.Pointer[[]Sample]
	published atomic.Uint64
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
	m.published.Add(1)
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

// Published returns how many snapshots have been swapped in.
func (m *Mirror) Published() uint64 {
	if m == nil {
		return 0
	}
	return m.published.Load()
}

// Publisher bundles the two handoff surfaces a simulation publishes into.
// All methods are nil-safe so call sites stay unconditional: a detached run
// simply passes a nil Publisher and every publish is a no-op.
type Publisher struct {
	Bus    *Bus
	Mirror *Mirror
}

// NewPublisher returns a publisher with a fresh bus (capacity busSize,
// DefaultBusSize if <= 0) and mirror.
func NewPublisher(busSize int) *Publisher {
	return &Publisher{Bus: NewBus(busSize), Mirror: &Mirror{}}
}

// Publish forwards to the bus; no-op on a nil publisher or nil bus.
func (p *Publisher) Publish(ev Event) {
	if p != nil && p.Bus != nil {
		p.Bus.Publish(ev)
	}
}

// Label forwards to the bus label table; 0 on a nil publisher.
func (p *Publisher) Label(name string) int32 {
	if p == nil || p.Bus == nil {
		return 0
	}
	return p.Bus.Label(name)
}

// PublishMirror forwards to the mirror; no-op on a nil publisher.
func (p *Publisher) PublishMirror(fill func(emit func(name string, v float64))) {
	if p != nil {
		p.Mirror.Publish(fill)
	}
}

// MarkDone flags the bus as finished; no-op on a nil publisher.
func (p *Publisher) MarkDone() {
	if p != nil && p.Bus != nil {
		p.Bus.MarkDone()
	}
}
