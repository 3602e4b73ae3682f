package experiments

import "testing"

// TestFleetStealAwareBeatsFirstFit pins the experiment's headline: telemetry-
// driven placement must deliver a lower fleet-wide p95 than packing, for
// both guest configurations.
func TestFleetStealAwareBeatsFirstFit(t *testing.T) {
	results, _ := fleetScale(Options{Seed: 42, Scale: 0.1})
	// Cell order: policies {first-fit, least-loaded, steal-aware} x guests
	// {CFS, vSched}.
	for off, guest := range []string{"CFS", "vSched"} {
		ff, sa := results[0+off], results[4+off]
		if ff.Policy != "first-fit" || sa.Policy != "steal-aware" || ff.Guest != guest || sa.Guest != guest {
			t.Fatalf("cells %d and %d are %s/%s and %s/%s, want first-fit and steal-aware under %s",
				off, 4+off, ff.Policy, ff.Guest, sa.Policy, sa.Guest, guest)
		}
		if sa.E2E.P95() >= ff.E2E.P95() {
			t.Errorf("%s guests: steal-aware p95 %v does not beat first-fit %v", guest, sa.E2E.P95(), ff.E2E.P95())
		}
	}
}
