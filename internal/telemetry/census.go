package telemetry

import "vsched/internal/metrics"

// UpdateCensus publishes the recorder's own occupancy into reg as
// first-class gauges, making the flight recorder's memory story
// scrape-visible next to the metrics it records: how many series exist, how
// many sample passes ran, the bucket footprint, and where that sits
// against the provable MaxSeriesBytes bound. Call it from a simulation
// safepoint (epoch boundary, per-second hook); the values are pure
// functions of simulation state, so sampling them is deterministic.
func (r *Recorder) UpdateCensus(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	bytes := float64(r.Bytes())
	maxBytes := float64(r.MaxBytes())
	reg.Gauge("telemetry.series").Set(float64(r.Len()))
	reg.Gauge("telemetry.samples").Set(float64(r.Samples()))
	reg.Gauge("telemetry.bytes").Set(bytes)
	reg.Gauge("telemetry.max_bytes").Set(maxBytes)
	occ := 0.0
	if maxBytes > 0 {
		occ = bytes / maxBytes
	}
	reg.Gauge("telemetry.occupancy").Set(occ)
}
