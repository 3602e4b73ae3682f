package harness

import (
	"reflect"
	"runtime"
	"testing"

	"vsched/internal/experiments"
)

// runProcs runs cfg with GOMAXPROCS set to procs, restoring it afterwards.
func runProcs(procs int, cfg Config) *Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Run(cfg)
}

func registrySubset(t *testing.T, ids ...string) []experiments.Runner {
	t.Helper()
	var rs []experiments.Runner
	for _, id := range ids {
		r, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		rs = append(rs, r)
	}
	return rs
}

// TestParallelMatchesSerialFastSubset drives real experiments with
// replication through the serial (GOMAXPROCS 1) and a parallel (GOMAXPROCS
// 4) harness and requires
// byte-identical text and artifacts-modulo-timing. Cheap enough for -short
// and the race pass.
func TestParallelMatchesSerialFastSubset(t *testing.T) {
	runners := registrySubset(t, "fig3", "fig10a", "table2", "fig11")
	cfg := Config{Runners: runners, BaseSeed: 42, Reps: 3, Scale: 0.05}
	serial, parallel := runProcs(1, cfg), runProcs(4, cfg)
	if serial.Failed()+parallel.Failed() != 0 {
		t.Fatalf("failures: serial=%d parallel=%d", serial.Failed(), parallel.Failed())
	}
	if serial.Text() != parallel.Text() {
		t.Fatalf("parallel harness output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.Text(), parallel.Text())
	}
	if serial.EventsFired() != parallel.EventsFired() {
		t.Fatalf("event totals differ: %d vs %d", serial.EventsFired(), parallel.EventsFired())
	}
	// Per-trial metrics snapshots are part of the determinism contract too:
	// the parallel path must embed the exact counter values the serial path
	// saw, experiment by experiment, replicate by replicate.
	for i := range serial.Experiments {
		se, pe := serial.Experiments[i], parallel.Experiments[i]
		for j := range se.Trials {
			sm, pm := se.Trials[j].Metrics, pe.Trials[j].Metrics
			if len(sm) == 0 {
				t.Fatalf("%s trial %d captured no metrics", se.ID, j)
			}
			if !reflect.DeepEqual(sm, pm) {
				t.Fatalf("%s trial %d metrics differ between serial and parallel:\n%v\nvs\n%v",
					se.ID, j, sm, pm)
			}
		}
	}
}

// TestParallelMatchesSerialFullRegistry is the acceptance check for the
// harness: the complete registry (the cmd/experiments -run all path), run
// under GOMAXPROCS 1 and 4, must produce byte-identical reports for the same
// seed set.
func TestParallelMatchesSerialFullRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry determinism suite")
	}
	cfg := Config{BaseSeed: 42, Scale: 0.05}
	serial, parallel := runProcs(1, cfg), runProcs(4, cfg)
	if serial.Failed()+parallel.Failed() != 0 {
		t.Fatalf("failures: serial=%d parallel=%d", serial.Failed(), parallel.Failed())
	}
	if serial.Text() != parallel.Text() {
		t.Fatal("parallel full-registry output differs from serial")
	}
	if got := len(serial.Experiments); got != len(experiments.Registry()) {
		t.Fatalf("experiments covered: %d", got)
	}
}

// TestRepsOneMatchesDirectRun pins the compatibility contract: a -reps 1
// harness trial is the classic serial run, bit for bit (replicate 0 keeps
// the base seed).
func TestRepsOneMatchesDirectRun(t *testing.T) {
	r, _ := experiments.ByID("fig3")
	direct := r.Run(experiments.Options{Seed: 42, Scale: 0.1}).String()
	res := Run(Config{Runners: []experiments.Runner{r}, BaseSeed: 42, Scale: 0.1})
	harnessed := res.Experiments[0].Trials[0].Report.String()
	if direct != harnessed {
		t.Fatalf("harness trial diverged from direct run:\n%s\nvs\n%s", direct, harnessed)
	}
}
