package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fleetFaultSeries are the eight fleet.macro.* series the macro fault plane
// aggregates each epoch (see fleet.macroAgg.emit). The exports below are what
// harness artifacts embed and the live /metrics mirror tails, so their round-trip
// behaviour is pinned here against realistic shapes: step counters, spiky
// gauges, an all-zero quiet run, and histories long enough to fill the store
// many times over.
var fleetFaultSeries = []string{
	"fleet.macro.hosts_down",
	"fleet.macro.hosts_degraded",
	"fleet.macro.hosts_stalled",
	"fleet.macro.pending_retry",
	"fleet.macro.restarts_total",
	"fleet.macro.lost_total",
	"fleet.macro.evacuations_total",
	"fleet.macro.killed_total",
}

// tinyStoreConfig shrinks the store so a few thousand samples exercise every
// boundary: the store filling, pairs merging, the stride doubling again and
// again, and (5 being odd) an unpaired bucket carried through each halving.
func tinyStoreConfig() Config {
	return Config{
		Interval: 50 * 1e6, // 50ms in ns; only recorded, not exercised here
		Buckets:  5,
	}
}

// buildFleetSnapshot synthesises the eight fault series with n samples each
// (except killed_total, left deliberately empty) and assembles the Snapshot
// the way Recorder.Snapshot does.
func buildFleetSnapshot(n int) (*Snapshot, []*Series) {
	cfg := tinyStoreConfig().withDefaults()
	snap := &Snapshot{IntervalNS: int64(cfg.Interval), Samples: uint64(n)}
	var series []*Series
	for si, name := range fleetFaultSeries {
		s := newSeries(name, false, &cfg)
		if name != "fleet.macro.killed_total" {
			for i := 0; i < n; i++ {
				t := int64(i) * int64(cfg.Interval)
				// Monotone step counters for *_total, sawtooth gauges for the
				// host-census series — the shapes the fault plane produces.
				var v float64
				if strings.HasSuffix(name, "_total") {
					v = float64(i / (3 + si))
				} else {
					v = float64((i + si) % 7)
				}
				s.Append(t, v)
			}
		}
		series = append(series, s)
		snap.Series = append(snap.Series, s.Snapshot())
	}
	return snap, series
}

// TestFleetFaultSeriesJSONRoundTrip: WriteJSON → ReadSnapshot → WriteJSON
// must be a fixed point, and the decoded structure must match exactly,
// buckets included.
func TestFleetFaultSeriesJSONRoundTrip(t *testing.T) {
	// 700 samples through a 5-bucket store: the stride doubles seven times.
	snap, series := buildFleetSnapshot(700)
	var first bytes.Buffer
	if err := snap.WriteJSON(&first); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.IntervalNS != snap.IntervalNS || got.Samples != snap.Samples ||
		len(got.Series) != len(snap.Series) {
		t.Fatalf("decoded snapshot header differs: %+v vs %+v", got, snap)
	}
	var second bytes.Buffer
	if err := got.WriteJSON(&second); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("JSON round trip is not a fixed point")
	}

	for i, sr := range got.Series {
		if sr.Name != fleetFaultSeries[i] {
			t.Fatalf("series %d = %q, want %q (name-sorted contract)", i, sr.Name, fleetFaultSeries[i])
		}
		want := series[i].Buckets()
		if len(sr.Buckets) != len(want) {
			t.Fatalf("%s: %d buckets, want %d", sr.Name, len(sr.Buckets), len(want))
		}
		for j := range want {
			if sr.Buckets[j] != want[j] {
				t.Fatalf("%s: bucket %d = %+v, want %+v", sr.Name, j, sr.Buckets[j], want[j])
			}
		}
	}
}

// TestFleetFaultSeriesRollupConservation: after repeated stride doubling,
// the exported buckets of every series still cover each sample
// exactly once, in time order, with non-overlapping [T0, T1] spans — the
// invariant that makes the exported rollup a faithful full-history record.
func TestFleetFaultSeriesRollupConservation(t *testing.T) {
	snap, _ := buildFleetSnapshot(2400)
	for _, sr := range snap.Series {
		var total uint64
		for i, b := range sr.Buckets {
			if b.Count == 0 {
				t.Fatalf("%s: bucket %d is empty", sr.Name, i)
			}
			if b.T1 < b.T0 {
				t.Fatalf("%s: bucket %d spans [%d, %d]", sr.Name, i, b.T0, b.T1)
			}
			if i > 0 && b.T0 <= sr.Buckets[i-1].T1 {
				t.Fatalf("%s: bucket %d overlaps its predecessor (%d <= %d)",
					sr.Name, i, b.T0, sr.Buckets[i-1].T1)
			}
			total += uint64(b.Count)
		}
		if total != sr.Count {
			t.Fatalf("%s: buckets hold %d samples, series recorded %d", sr.Name, total, sr.Count)
		}
	}
}

// TestEmptyFleetSeriesExports: a quiet run (killed_total above, or a whole
// recorder before its first sample) must still export cleanly — zero counts,
// no buckets — and survive the JSON round trip.
func TestEmptyFleetSeriesExports(t *testing.T) {
	snap, _ := buildFleetSnapshot(0)
	for _, sr := range snap.Series {
		if sr.Count != 0 || len(sr.Buckets) != 0 {
			t.Fatalf("%s: empty series exported non-empty: %+v", sr.Name, sr)
		}
		// The zero-sample summary stats must be JSON-encodable (no Inf from
		// the ±Inf min/max seeds leaking out).
		if math.IsInf(sr.Min, 0) || math.IsInf(sr.Max, 0) {
			t.Fatalf("%s: empty series leaks seed min/max: %+v", sr.Name, sr)
		}
	}
	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON of empty series: %v", err)
	}
	got, err := ReadSnapshot(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(js.Bytes(), again.Bytes()) {
		t.Fatal("empty snapshot did not round-trip")
	}
}

// TestNaNPayloadExports pins the contract for NaN samples in a fault series:
// a one-sample bucket preserves the exact NaN bit pattern, and WriteJSON —
// which cannot represent NaN — fails loudly rather than writing a corrupt
// document.
func TestNaNPayloadExports(t *testing.T) {
	cfg := tinyStoreConfig().withDefaults()
	payloadNaN := math.Float64frombits(0x7ff8000000001234)
	s := newSeries("fleet.macro.pending_retry", false, &cfg)
	s.Append(0, 3)
	s.Append(100, payloadNaN)
	s.Append(200, 5)
	sr := s.Snapshot()

	if len(sr.Buckets) != 3 {
		t.Fatalf("3 samples in a 5-bucket store gave %d buckets", len(sr.Buckets))
	}
	b := sr.Buckets[1]
	for _, v := range []float64{b.Min, b.Max, b.Sum, b.Mean()} {
		if math.Float64bits(v) != math.Float64bits(payloadNaN) {
			t.Fatalf("NaN payload not preserved bit-exactly: %+v", b)
		}
	}

	snap := &Snapshot{IntervalNS: int64(cfg.Interval), Samples: 3, Series: []SeriesSnapshot{sr}}
	if err := snap.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteJSON silently accepted NaN; artifacts embedding this would be corrupt")
	}
}
