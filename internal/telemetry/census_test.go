package telemetry

import (
	"testing"

	"vsched/internal/metrics"
	"vsched/internal/sim"
)

func TestRecorderCensusAppearsInFlatten(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, Config{Interval: 10 * sim.Millisecond})
	rec.AddSource("demo.", SourceFunc(func(now sim.Time, emit func(string, float64)) {
		emit("x", 1)
		emit("y", 2)
	}))
	rec.SampleNow()

	reg := metrics.NewRegistry()
	rec.UpdateCensus(reg)
	flat := map[string]float64{}
	reg.VisitNumeric(func(name string, v float64) { flat[name] = v })
	if got := flat["telemetry.series"]; got != 2 {
		t.Fatalf("telemetry.series = %v, want 2", got)
	}
	if got := flat["telemetry.bytes"]; got <= 0 {
		t.Fatalf("telemetry.bytes = %v, want > 0", got)
	}
	if got := flat["telemetry.max_bytes"]; got != float64(2*MaxSeriesBytes(rec.cfg)) {
		t.Fatalf("telemetry.max_bytes = %v, want %d", got, 2*MaxSeriesBytes(rec.cfg))
	}
	occ := flat["telemetry.occupancy"]
	if occ <= 0 || occ > 1 {
		t.Fatalf("telemetry.occupancy = %v, want in (0, 1]", occ)
	}
	if occ != flat["telemetry.bytes"]/flat["telemetry.max_bytes"] {
		t.Fatalf("occupancy %v != bytes/max_bytes %v", occ, flat["telemetry.bytes"]/flat["telemetry.max_bytes"])
	}
	if _, ok := flat["telemetry.samples"]; !ok {
		t.Fatalf("telemetry.samples missing from the registry: %v", flat)
	}
}

func TestRecorderCensusNilSafe(t *testing.T) {
	var rec *Recorder
	reg := metrics.NewRegistry()
	rec.UpdateCensus(reg) // must not panic
	n := 0
	reg.VisitNumeric(func(string, float64) { n++ })
	if n != 0 {
		t.Fatalf("nil recorder wrote gauges")
	}
	eng := sim.NewEngine(1)
	New(eng, Config{}).UpdateCensus(nil) // must not panic
}
