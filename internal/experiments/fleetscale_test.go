package experiments

import "testing"

// TestCloudScaleRuns exercises the fleetscale experiment at a reduced scale:
// RunMacro panics on a conservation imbalance, so a clean return carries
// weight; every policy must place VMs and complete lifetimes, and every
// policy cell must reach the stats.
func TestCloudScaleRuns(t *testing.T) {
	stats := &Stats{}
	results, rep := cloudScale(Options{Seed: 42, Scale: 0.05, Stats: stats})
	if len(results) != 3 || len(rep.Rows) != 3 {
		t.Fatalf("got %d results and %d rows, want 3 policies", len(results), len(rep.Rows))
	}
	for i, r := range results {
		if r.Placed <= 0 || r.Lifetimes <= 0 {
			t.Fatalf("result %d (%s): placed=%d lifetimes=%d, want both > 0", i, r.Policy, r.Placed, r.Lifetimes)
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
