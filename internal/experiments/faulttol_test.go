package experiments

import (
	"strconv"
	"testing"
)

// TestFaultTolRuns exercises the faulttol experiment at a reduced scale. The
// hard assertions — recovery strictly beating no-recovery on completed
// lifetimes, a schedule that actually kills VMs, and exact VM conservation —
// are panics inside the experiment and RunMacro, so a clean return carries
// most of the weight; the shape checks keep the SLO report honest.
func TestFaultTolRuns(t *testing.T) {
	stats := &Stats{}
	rep := FaultTol(Options{Seed: 42, Scale: 0.05, Stats: stats})
	if len(rep.Rows) != 3 {
		t.Fatalf("got %d rows, want clean/faults/recovery", len(rep.Rows))
	}
	lifetimes := func(row []string) int {
		n, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("bad lifetimes cell %q", row[3])
		}
		return n
	}
	clean, noRec, rec := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if lifetimes(noRec) >= lifetimes(clean) {
		t.Fatalf("faults did not cost throughput: %s vs clean %s", noRec[3], clean[3])
	}
	if lifetimes(rec) <= lifetimes(noRec) {
		t.Fatalf("recovery row %s not above no-recovery %s", rec[3], noRec[3])
	}
	if avail, err := strconv.ParseFloat(rec[7], 64); err != nil || avail <= 0 || avail >= 1 {
		t.Fatalf("recovery availability %q, want in (0,1) under a crash schedule", rec[7])
	}
	if clean[7] != "1.00000" {
		t.Fatalf("clean availability %q, want exactly 1", clean[7])
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
