package telemetry

import (
	"runtime"
	"time"

	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// SelfSource samples the simulator itself — the deterministic part: event
// queue census (timing-wheel residency per level, occupied slots, overflow
// and ready heap depths, node pool size), cumulative events fired, and the
// tracer's emitted/dropped totals. Everything it reads is a pure function of
// simulation state, so its series participate in byte-identity checks.
//
// Series (under the registration prefix):
//
//	sim.fired            events executed so far
//	sim.pending          active scheduled events
//	sim.wheel.resident   nodes in wheel slots (incl. lazily cancelled)
//	sim.wheel.level0..2  ditto, per level
//	sim.wheel.slots      occupied wheel slots
//	sim.wheel.overflow   beyond-horizon heap depth
//	sim.wheel.ready      due-now heap depth
//	sim.wheel.free       node pool size
//	vtrace.emitted       tracer lifetime event count   (when a tracer is set)
//	vtrace.dropped       events lost to ring wrap      (when a tracer is set)
type SelfSource struct {
	Eng *sim.Engine
	// Tracer, when non-nil, adds the vtrace emitted/dropped series.
	Tracer *vtrace.Tracer
}

// Collect implements Source.
func (s *SelfSource) Collect(now sim.Time, emit func(string, float64)) {
	ws := s.Eng.WheelStats()
	emit("sim.fired", float64(s.Eng.Fired()))
	emit("sim.pending", float64(ws.Pending))
	emit("sim.wheel.resident", float64(ws.WheelResident))
	emit("sim.wheel.level0", float64(ws.Levels[0]))
	emit("sim.wheel.level1", float64(ws.Levels[1]))
	emit("sim.wheel.level2", float64(ws.Levels[2]))
	emit("sim.wheel.slots", float64(ws.OccupiedSlots))
	emit("sim.wheel.overflow", float64(ws.Overflow))
	emit("sim.wheel.ready", float64(ws.Ready))
	emit("sim.wheel.free", float64(ws.FreeNodes))
	if s.Tracer.Enabled() {
		emit("vtrace.emitted", float64(s.Tracer.Total()))
		emit("vtrace.dropped", float64(s.Tracer.Dropped()))
	}
}

// WallSource samples the simulator's wall-clock throughput — the volatile
// part of self-observability, registered via AddVolatileSource because its
// values depend on the machine, not the scenario. The throughput metrics a
// benchmark measures offline (events fired per wall second, simulated
// seconds per wall second) become live series on any long run, plus the Go
// allocator's pace.
//
// Series (under the registration prefix):
//
//	self.events_per_sec  events fired per wall-clock second since last sample
//	self.sim_wall_ratio  virtual seconds advanced per wall second
//	self.allocs_per_sec  heap objects allocated per wall second
//
// Samples are paced by virtual time but measured in wall time; collection
// passes arriving faster than minWallDelta apart are skipped so a fast
// simulation does not drown in ReadMemStats calls.
type WallSource struct {
	Eng *sim.Engine
	// MinWallDelta is the minimum wall time between emitted samples
	// (default 5ms).
	MinWallDelta time.Duration

	lastWall    time.Time
	lastFired   uint64
	lastSim     sim.Time
	lastMallocs uint64
}

// Collect implements Source.
func (s *WallSource) Collect(now sim.Time, emit func(string, float64)) {
	minDelta := s.MinWallDelta
	if minDelta <= 0 {
		minDelta = 5 * time.Millisecond
	}
	wall := time.Now()
	if s.lastWall.IsZero() {
		// Arm the baselines on the first pass; emit from the second on.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.lastWall, s.lastFired, s.lastSim, s.lastMallocs = wall, s.Eng.Fired(), now, ms.Mallocs
		return
	}
	dt := wall.Sub(s.lastWall)
	if dt < minDelta {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	secs := dt.Seconds()
	emit("self.events_per_sec", float64(s.Eng.Fired()-s.lastFired)/secs)
	emit("self.sim_wall_ratio", float64(now.Sub(s.lastSim))/1e9/secs)
	emit("self.allocs_per_sec", float64(ms.Mallocs-s.lastMallocs)/secs)
	s.lastWall, s.lastFired, s.lastSim, s.lastMallocs = wall, s.Eng.Fired(), now, ms.Mallocs
}
