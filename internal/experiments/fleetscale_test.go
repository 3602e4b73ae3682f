package experiments

import (
	"strconv"
	"testing"
)

// TestCloudScaleRuns exercises the fleetscale experiment at a reduced scale:
// RunMacro panics on a conservation imbalance, so a clean return carries
// weight; the shape checks keep the report honest, and every policy cell
// must reach the stats.
func TestCloudScaleRuns(t *testing.T) {
	stats := &Stats{}
	rep := CloudScale(Options{Seed: 42, Scale: 0.05, Stats: stats})
	if len(rep.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 policies", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		placed, err := strconv.Atoi(row[1])
		if err != nil || placed <= 0 {
			t.Fatalf("row %d: bad placed cell %q", i, row[1])
		}
		lifetimes, err := strconv.Atoi(row[3])
		if err != nil || lifetimes <= 0 {
			t.Fatalf("row %d: bad lifetimes cell %q", i, row[3])
		}
	}
	if stats.Engines() == 0 {
		t.Fatal("no engines tracked")
	}
	if snaps := stats.TelemetrySnapshot(); len(snaps) != 3 {
		t.Fatalf("got %d telemetry snapshots, want 3", len(snaps))
	}
}

// TestCloudScaleDeterministic pins the whole report: same seed and scale,
// same bytes.
func TestCloudScaleDeterministic(t *testing.T) {
	a := CloudScale(Options{Seed: 7, Scale: 0.05}).String()
	b := CloudScale(Options{Seed: 7, Scale: 0.05}).String()
	if a != b {
		t.Fatalf("fleetscale report not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}
