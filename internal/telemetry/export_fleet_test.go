package telemetry

import (
	"bytes"
	"encoding/csv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fleetFaultSeries are the eight fleet.macro.* series the macro fault plane
// aggregates each epoch (see fleet.macroAgg.emit). The exports below are what
// harness artifacts embed and the live /metrics mirror tails, so their round-trip
// behaviour is pinned here against realistic shapes: step counters, spiky
// gauges, an all-zero quiet run, and histories long enough to cross both
// rollup-tier boundaries.
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

// tinyTierConfig shrinks the rollup tiers to their minimum legal sizes so a
// few thousand samples exercise every boundary: raw chunk close and recycle,
// tier-1 overflow folding into tier 2, and tier-2 overflow doubling its
// stride.
func tinyTierConfig() Config {
	return Config{
		Interval:       50 * 1e6, // 50ms in ns; only recorded, not exercised here
		RawChunkPoints: 32,
		RawChunks:      2,
		Tier1Cap:       2 * rollupFactor,
		Tier2Cap:       2,
	}
}

// buildFleetSnapshot synthesises the eight fault series with n samples each
// (except killed_total, left deliberately empty) and assembles the Snapshot
// the way Recorder.Snapshot does.
func buildFleetSnapshot(n int) (*Snapshot, []*Series) {
	cfg := tinyTierConfig().withDefaults()
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
// must be a fixed point, the decoded structure must match exactly, and the
// raw windows must decode to the same points.
func TestFleetFaultSeriesJSONRoundTrip(t *testing.T) {
	// 700 samples with Tier1Cap=20, Tier2Cap=2: tier 1 folds 68 times, tier 2
	// overflows and doubles its stride repeatedly.
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
		wantPts := series[i].RawPoints()
		gotPts, err := sr.Points()
		if err != nil {
			t.Fatalf("%s: decode raw window: %v", sr.Name, err)
		}
		if len(gotPts) != len(wantPts) || sr.RawN != len(wantPts) {
			t.Fatalf("%s: raw window %d points (RawN %d), want %d", sr.Name, len(gotPts), sr.RawN, len(wantPts))
		}
		for j := range gotPts {
			if gotPts[j] != wantPts[j] {
				t.Fatalf("%s: raw point %d = %+v, want %+v", sr.Name, j, gotPts[j], wantPts[j])
			}
		}
	}
}

// TestFleetFaultSeriesRollupConservation: after tier folding and stride
// doubling, the exported buckets of every series still cover each sample
// exactly once, in time order, with non-overlapping [T0, T1] spans — the
// invariant that makes WriteCSV a faithful full-history dump.
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

// TestFleetFaultSeriesCSV parses the WriteCSV output and reconciles it
// against the snapshot: one row per bucket, grouped in series order, values
// matching the JSON form bit for bit.
func TestFleetFaultSeriesCSV(t *testing.T) {
	snap, _ := buildFleetSnapshot(900)
	var buf bytes.Buffer
	if err := snap.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse CSV back: %v", err)
	}
	want := []string{"series", "t0_ns", "t1_ns", "min", "max", "mean", "count"}
	if !reflect.DeepEqual(rows[0], want) {
		t.Fatalf("header %v, want %v", rows[0], want)
	}
	rows = rows[1:]
	i := 0
	for _, sr := range snap.Series {
		for bi, b := range sr.Buckets {
			if i >= len(rows) {
				t.Fatalf("CSV ended at row %d, %s bucket %d missing", i, sr.Name, bi)
			}
			row := rows[i]
			i++
			if row[0] != sr.Name {
				t.Fatalf("row %d series %q, want %q", i, row[0], sr.Name)
			}
			t0, _ := strconv.ParseInt(row[1], 10, 64)
			t1, _ := strconv.ParseInt(row[2], 10, 64)
			mn, _ := strconv.ParseFloat(row[3], 64)
			mx, _ := strconv.ParseFloat(row[4], 64)
			mean, _ := strconv.ParseFloat(row[5], 64)
			cnt, _ := strconv.ParseUint(row[6], 10, 32)
			if t0 != b.T0 || t1 != b.T1 || mn != b.Min || mx != b.Max ||
				mean != b.Mean() || uint32(cnt) != b.Count {
				t.Fatalf("%s bucket %d: CSV row %v != bucket %+v", sr.Name, bi, row, b)
			}
		}
	}
	if i != len(rows) {
		t.Fatalf("CSV has %d extra rows", len(rows)-i)
	}
}

// TestEmptyFleetSeriesExports: a quiet run (killed_total above, or a whole
// recorder before its first sample) must still export cleanly — zero counts,
// no buckets, no raw bytes, no CSV rows — and survive the JSON round trip.
func TestEmptyFleetSeriesExports(t *testing.T) {
	snap, _ := buildFleetSnapshot(0)
	for _, sr := range snap.Series {
		if sr.Count != 0 || sr.RawN != 0 || len(sr.Buckets) != 0 || len(sr.Raw) != 0 {
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
	var cs bytes.Buffer
	if err := snap.WriteCSV(&cs); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if lines := strings.Count(cs.String(), "\n"); lines != 1 {
		t.Fatalf("empty snapshot CSV has %d lines, want header only:\n%s", lines, cs.String())
	}
}

// TestNaNPayloadExports pins the contract for NaN samples in a fault series:
// the Gorilla raw window preserves the exact NaN bit pattern, WriteCSV
// renders the poisoned cells as literal NaN without erroring, and WriteJSON —
// which cannot represent NaN in its summary fields — fails loudly rather
// than writing a corrupt document.
func TestNaNPayloadExports(t *testing.T) {
	cfg := tinyTierConfig().withDefaults()
	payloadNaN := math.Float64frombits(0x7ff8000000001234)
	s := newSeries("fleet.macro.pending_retry", false, &cfg)
	s.Append(0, 3)
	s.Append(100, payloadNaN)
	s.Append(200, 5)
	sr := s.Snapshot()

	pts, err := sr.Points()
	if err != nil {
		t.Fatalf("decode raw window: %v", err)
	}
	if len(pts) != 3 || math.Float64bits(pts[1].V) != math.Float64bits(payloadNaN) {
		t.Fatalf("NaN payload not preserved bit-exactly: %+v", pts)
	}

	snap := &Snapshot{IntervalNS: int64(cfg.Interval), Samples: 3, Series: []SeriesSnapshot{sr}}
	var cs bytes.Buffer
	if err := snap.WriteCSV(&cs); err != nil {
		t.Fatalf("WriteCSV with NaN: %v", err)
	}
	if !strings.Contains(cs.String(), "NaN") {
		t.Fatalf("CSV does not render the NaN cells:\n%s", cs.String())
	}
	if err := snap.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteJSON silently accepted NaN summary fields; artifacts embedding this would be corrupt")
	}
}
