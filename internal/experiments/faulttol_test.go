package experiments

import "testing"

// TestFaultTolRuns exercises the faulttol experiment at a reduced scale. The
// hard assertions — recovery strictly beating no-recovery on completed
// lifetimes, a schedule that actually kills VMs, and exact VM conservation —
// are panics inside the experiment and RunMacro, so a clean return carries
// most of the weight; the checks on the typed results keep the SLO report
// honest.
func TestFaultTolRuns(t *testing.T) {
	stats := &Stats{}
	results, rep := faultTol(Options{Seed: 42, Scale: 0.05, Stats: stats})
	if len(results) != 3 || len(rep.Rows) != 3 {
		t.Fatalf("got %d results and %d rows, want clean/faults/recovery", len(results), len(rep.Rows))
	}
	clean, noRec, rec := results[0], results[1], results[2]
	if noRec.Lifetimes >= clean.Lifetimes {
		t.Fatalf("faults did not cost throughput: %d lifetimes vs clean %d", noRec.Lifetimes, clean.Lifetimes)
	}
	if rec.Lifetimes <= noRec.Lifetimes {
		t.Fatalf("recovery lifetimes %d not above no-recovery %d", rec.Lifetimes, noRec.Lifetimes)
	}
	if rec.Availability <= 0 || rec.Availability >= 1 {
		t.Fatalf("recovery availability %v, want in (0,1) under a crash schedule", rec.Availability)
	}
	if clean.Availability != 1 {
		t.Fatalf("clean availability %v, want exactly 1", clean.Availability)
	}
	if stats.Engines() == 0 {
		t.Fatal("no engines tracked")
	}
}

// TestFaultTolDeterministic pins the whole report: same seed and scale, same
// bytes (the CI smoke re-checks this through the CLI).
func TestFaultTolDeterministic(t *testing.T) {
	a := FaultTol(Options{Seed: 7, Scale: 0.05}).String()
	b := FaultTol(Options{Seed: 7, Scale: 0.05}).String()
	if a != b {
		t.Fatalf("faulttol report not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}
