// Package telemetry is the simulator's flight recorder: a deterministic
// sampling scheduler driven by the sim clock that periodically snapshots
// metric sources into compressed, bounded-memory time series.
//
// The vtrace layer records *events* — every state transition, at full
// fidelity, into a ring whose window shrinks as event rate grows. That is
// the right tool for close inspection of a few seconds of simulation, but a
// long-horizon fleet run (thousands of hosts, days of virtual time) fires
// billions of events; no ring survives that. Telemetry takes the other
// trade: fixed-period samples of aggregate signals (steal rates, queue
// depths, utilization, the simulator's own throughput), Gorilla-compressed
// with tiered downsampling so memory stays provably bounded no matter how
// long the run is, while the paper's continuously-observable signals stay
// continuously observable.
//
// Determinism: sampling is scheduled on the sim clock, sources read only
// simulation state, and the compressed encoding is a pure function of the
// samples — so a recorder's snapshot is byte-identical between serial and
// parallel runs of the same scenario. The one exception is explicitly
// volatile sources (wall-clock throughput, allocator counters), whose series
// are flagged and excluded from deterministic snapshots.
package telemetry

import (
	"sort"

	"vsched/internal/metrics"
	"vsched/internal/sim"
)

// Config bounds a Recorder. The defaults keep a series' worst-case footprint
// around 60 KB while covering any horizon (see MaxSeriesBytes).
type Config struct {
	// Interval is the sampling period in virtual time (default 100ms).
	Interval sim.Duration
	// RawChunkPoints is the number of points per compressed raw chunk
	// (default 512).
	RawChunkPoints int
	// RawChunks is how many closed chunks the raw window keeps before the
	// oldest is recycled (default 4). The open chunk is extra.
	RawChunks int
	// Tier1Cap bounds the 10x rollup tier (default 512 buckets); overflow
	// folds into tier 2.
	Tier1Cap int
	// Tier2Cap bounds the 100x rollup tier (default 1024 buckets); overflow
	// merges adjacent buckets, doubling the tier-2 stride.
	Tier2Cap int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * sim.Millisecond
	}
	if c.RawChunkPoints <= 0 {
		c.RawChunkPoints = 512
	}
	if c.RawChunks <= 0 {
		c.RawChunks = 4
	}
	if c.Tier1Cap < 2*rollupFactor {
		c.Tier1Cap = 512
	}
	if c.Tier2Cap < 2 {
		c.Tier2Cap = 1024
	}
	return c
}

// MaxSeriesBytes is the provable per-series memory bound for a config: no
// matter how many samples are appended, Series.Bytes() stays under it.
//
// Raw: RawChunks closed chunks plus the open one, each at most
// RawChunkPoints * 19 bytes (worst case ~146 bits/point: 4+64 timestamp bits
// and 2+5+6+64 value bits, rounded up). Rollups: append can at most double a
// slice's capacity beyond its cap before the fold trims it, hence the factor
// 2. Everything else is fixed overhead.
func MaxSeriesBytes(c Config) int {
	c = c.withDefaults()
	const worstPointBytes = 19
	raw := (c.RawChunks + 1) * (c.RawChunkPoints*worstPointBytes + 16)
	rollups := 2 * (c.Tier1Cap + c.Tier2Cap) * bucketBytes
	return raw + rollups + seriesFixedBytes + 64
}

// Source produces named samples when collected. Implementations must read
// only simulation state (unless registered volatile) and must not mutate it:
// attaching telemetry may never change a result.
type Source interface {
	Collect(now sim.Time, emit func(name string, v float64))
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(now sim.Time, emit func(name string, v float64))

// Collect implements Source.
func (f SourceFunc) Collect(now sim.Time, emit func(name string, v float64)) { f(now, emit) }

// registrySource samples every numeric instrument of a metrics.Registry via
// its zero-alloc VisitNumeric fast path.
type registrySource struct{ reg *metrics.Registry }

// Collect implements Source.
func (s registrySource) Collect(now sim.Time, emit func(string, float64)) {
	s.reg.VisitNumeric(emit)
}

// RegistrySource returns a Source sampling every counter, gauge and
// histogram summary of reg.
func RegistrySource(reg *metrics.Registry) Source { return registrySource{reg} }

// boundSource is a source plus its recorder-side state. The emit closure and
// the per-source series cache are built once, so the steady-state sampling
// path performs no allocation beyond what the series themselves amortize.
type boundSource struct {
	src      Source
	prefix   string
	volatile bool
	cache    map[string]*Series
	emit     func(name string, v float64)
	now      int64 // virtual ns of the in-flight sample pass
}

// Recorder owns the series and the sampling schedule. Like the rest of the
// simulator it is single-goroutine: all methods must be called from the
// engine's goroutine (or before/after the run).
type Recorder struct {
	eng     *sim.Engine
	cfg     Config
	sources []*boundSource
	series  map[string]*Series
	samples uint64
	stopped bool
	started bool
}

// New builds a recorder on eng. Call AddSource, then Start.
func New(eng *sim.Engine, cfg Config) *Recorder {
	return &Recorder{eng: eng, cfg: cfg.withDefaults(), series: make(map[string]*Series)}
}

// Interval returns the sampling period.
func (r *Recorder) Interval() sim.Duration { return r.cfg.Interval }

// AddSource registers a deterministic source; its series names are
// prefix+name. Register every source before Start.
func (r *Recorder) AddSource(prefix string, s Source) { r.addSource(prefix, s, false) }

// AddVolatileSource registers a source whose values depend on wall-clock or
// process state. Its series are flagged Volatile and excluded from
// deterministic snapshots.
func (r *Recorder) AddVolatileSource(prefix string, s Source) { r.addSource(prefix, s, true) }

func (r *Recorder) addSource(prefix string, s Source, volatile bool) {
	b := &boundSource{src: s, prefix: prefix, volatile: volatile, cache: make(map[string]*Series)}
	b.emit = func(name string, v float64) {
		sr, ok := b.cache[name]
		if !ok {
			full := b.prefix + name
			sr, ok = r.series[full]
			if !ok {
				sr = newSeries(full, b.volatile, &r.cfg)
				r.series[full] = sr
			}
			b.cache[name] = sr
		}
		sr.Append(b.now, v)
	}
	r.sources = append(r.sources, b)
}

// SampleNow runs one collection pass over every source at the current
// virtual time.
func (r *Recorder) SampleNow() {
	now := r.eng.Now()
	for _, b := range r.sources {
		b.now = int64(now)
		b.src.Collect(now, b.emit)
	}
	r.samples++
}

// Start schedules the periodic sampling loop on the engine, first sample one
// interval from now. Idempotent.
func (r *Recorder) Start() {
	if r.started {
		return
	}
	r.started = true
	r.eng.After(r.cfg.Interval, r.tick)
}

func (r *Recorder) tick() {
	if r.stopped {
		return
	}
	r.SampleNow()
	r.eng.After(r.cfg.Interval, r.tick)
}

// Stop halts the sampling loop at the next tick.
func (r *Recorder) Stop() { r.stopped = true }

// Samples returns how many collection passes have run.
func (r *Recorder) Samples() uint64 { return r.samples }

// Len returns the number of series.
func (r *Recorder) Len() int { return len(r.series) }

// Get returns the named series, or nil.
func (r *Recorder) Get(name string) *Series { return r.series[name] }

// Series returns every series sorted by name. includeVolatile controls
// whether wall-clock-dependent series appear.
func (r *Recorder) Series(includeVolatile bool) []*Series {
	out := make([]*Series, 0, len(r.series))
	for _, s := range r.series {
		if s.Volatile && !includeVolatile {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Bytes returns the recorder's total series footprint.
func (r *Recorder) Bytes() int {
	n := 0
	for _, s := range r.series {
		n += s.Bytes()
	}
	return n
}

// MaxBytes returns the provable footprint bound for the recorder's current
// series set: Len() * MaxSeriesBytes(cfg).
func (r *Recorder) MaxBytes() int { return len(r.series) * MaxSeriesBytes(r.cfg) }
