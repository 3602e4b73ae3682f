package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"vsched/internal/experiments"
	"vsched/internal/sim"
)

// synthetic builds a runner whose report is a pure function of the seed, so
// order-independence is observable without the cost of a real experiment. It
// spins a real engine (registered with Options.Stats) to exercise the event
// accounting.
func synthetic(id string) experiments.Runner {
	return experiments.Runner{
		ID:    id,
		Title: "synthetic " + id,
		Run: func(o experiments.Options) *experiments.Report {
			eng := sim.NewEngine(o.Seed)
			o.Stats.Track(eng)
			ticks := 0
			var tick func()
			tick = func() {
				ticks++
				if ticks < 100 {
					eng.After(sim.Millisecond, tick)
				}
			}
			eng.After(0, tick)
			eng.RunFor(sim.Second)
			rep := &experiments.Report{ID: id, Title: "synthetic " + id,
				Header: []string{"metric", "value", "share"}}
			rep.Add("draw", fmt.Sprintf("%d", eng.Rand().Int63n(1000)), fmt.Sprintf("%d%%", 50+eng.Rand().Int63n(50)))
			rep.Add("ticks", fmt.Sprintf("%d", ticks), "100%")
			return rep
		},
	}
}

func syntheticSet(n int) []experiments.Runner {
	var rs []experiments.Runner
	for i := 0; i < n; i++ {
		rs = append(rs, synthetic(fmt.Sprintf("syn%d", i)))
	}
	return rs
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, "fig2", 0) != 42 {
		t.Fatal("replicate 0 must keep the base seed")
	}
	a := DeriveSeed(42, "fig2", 1)
	if a == 42 {
		t.Fatal("replicate 1 must differ from the base seed")
	}
	if a != DeriveSeed(42, "fig2", 1) {
		t.Fatal("derivation must be stable")
	}
	if a == DeriveSeed(42, "fig3", 1) {
		t.Fatal("seeds must differ across experiments")
	}
	if a == DeriveSeed(42, "fig2", 2) {
		t.Fatal("seeds must differ across replicates")
	}
	if a == DeriveSeed(43, "fig2", 1) {
		t.Fatal("seeds must differ across base seeds")
	}
	if a < 0 {
		t.Fatal("derived seeds must be non-negative")
	}
}

func TestParallelMatchesSerialSynthetic(t *testing.T) {
	runners := syntheticSet(12)
	cfg := Config{Runners: runners, BaseSeed: 7, Reps: 3}
	serial, parallel := runProcs(1, cfg), runProcs(4, cfg)
	if serial.Text() != parallel.Text() {
		t.Fatalf("parallel text differs from serial:\n%s\nvs\n%s", parallel.Text(), serial.Text())
	}
	if serial.Failed() != 0 || parallel.Failed() != 0 {
		t.Fatalf("unexpected failures: %d/%d", serial.Failed(), parallel.Failed())
	}
	if got, want := serial.Trials(), 36; got != want {
		t.Fatalf("trials=%d want %d", got, want)
	}
	if serial.EventsFired() == 0 || serial.EventsFired() != parallel.EventsFired() {
		t.Fatalf("event accounting differs: %d vs %d", serial.EventsFired(), parallel.EventsFired())
	}
	for i := range serial.Seeds() {
		if serial.Seeds()[i] != parallel.Seeds()[i] {
			t.Fatal("seed sets differ")
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	bomb := experiments.Runner{ID: "bomb", Title: "panics", Run: func(o experiments.Options) *experiments.Report {
		panic("kaboom")
	}}
	res := Run(Config{Runners: []experiments.Runner{synthetic("a"), bomb, synthetic("b")}, BaseSeed: 1})
	if res.Failed() != 1 {
		t.Fatalf("failed=%d want 1", res.Failed())
	}
	ex := res.Experiments[1]
	if ex.Trials[0].OK() || !strings.Contains(ex.Trials[0].Err, "kaboom") {
		t.Fatalf("panic not captured: %+v", ex.Trials[0])
	}
	if ex.Aggregate != nil {
		t.Fatal("all-failed experiment must have nil aggregate")
	}
	// The healthy neighbours must be unaffected.
	if !res.Experiments[0].Trials[0].OK() || !res.Experiments[2].Trials[0].OK() {
		t.Fatal("panic killed sibling trials")
	}
	if !strings.Contains(res.Text(), "FAILED rep 0") {
		t.Fatalf("text must surface the failure:\n%s", res.Text())
	}
}

func TestTimeoutInterruptsRunawayTrial(t *testing.T) {
	runaway := experiments.Runner{ID: "runaway", Title: "never finishes", Run: func(o experiments.Options) *experiments.Report {
		eng := sim.NewEngine(o.Seed)
		o.Stats.Track(eng)
		var spin func()
		spin = func() { eng.After(sim.Microsecond, spin) }
		eng.After(0, spin)
		eng.RunFor(sim.Duration(1 << 60)) // would run ~forever without Interrupt
		rep := &experiments.Report{ID: "runaway", Title: "x", Header: []string{"a"}}
		rep.Add("done")
		return rep
	}}
	start := time.Now()
	res := Run(Config{Runners: []experiments.Runner{runaway, synthetic("ok")}, BaseSeed: 1, Timeout: 100 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the run: %v", elapsed)
	}
	tr := res.Experiments[0].Trials[0]
	if !tr.TimedOut || tr.OK() {
		t.Fatalf("trial must be recorded as timed out: %+v", tr)
	}
	if !strings.Contains(tr.Err, "timeout") {
		t.Fatalf("err=%q", tr.Err)
	}
	if strings.Contains(tr.Err, "abandoned") {
		t.Fatalf("interrupt should have unwound the trial gracefully, not abandoned it: %q", tr.Err)
	}
	if tr.Events == 0 {
		t.Fatal("interrupted trial should still report the events it fired")
	}
	if !res.Experiments[1].Trials[0].OK() {
		t.Fatal("timeout starved the healthy trial")
	}
}

func TestAggregateCells(t *testing.T) {
	mk := func(rep int, seed int64, draw string) TrialResult {
		r := &experiments.Report{ID: "x", Title: "t", Header: []string{"metric", "value", "share"}}
		r.Add("draw", draw, "80%")
		r.Notef("stable note")
		return TrialResult{ExperimentID: "x", Replicate: rep, Seed: seed, Report: r}
	}
	agg := aggregate([]TrialResult{mk(0, 1, "10"), mk(1, 2, "20"), mk(2, 3, "30")})
	if agg == nil {
		t.Fatal("nil aggregate")
	}
	if got := agg.Cell(0, 1); got != "20±10 [10,30]" {
		t.Fatalf("numeric cell %q", got)
	}
	if got := agg.Cell(0, 2); got != "80%" {
		t.Fatalf("identical cell must pass through verbatim: %q", got)
	}
	if got := agg.Cell(0, 0); got != "draw" {
		t.Fatalf("label cell %q", got)
	}
	found := false
	for _, n := range agg.Notes {
		if strings.Contains(n, "aggregate of 3 seeds: 1, 2, 3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("seed note missing: %v", agg.Notes)
	}

	// Non-numeric diverging cells collapse to "varies".
	a, b := mk(0, 1, "alpha"), mk(1, 2, "beta")
	agg = aggregate([]TrialResult{a, b})
	if got := agg.Cell(0, 1); got != "varies" {
		t.Fatalf("diverging label cell %q", got)
	}

	// Shape divergence drops the trial with a note instead of mis-merging.
	odd := mk(2, 9, "5")
	odd.Report.Add("extra", "1", "2%")
	agg = aggregate([]TrialResult{mk(0, 1, "10"), odd})
	if len(agg.Rows) != 1 {
		t.Fatalf("shape-diverged trial must be dropped, rows=%d", len(agg.Rows))
	}
	found = false
	for _, n := range agg.Notes {
		if strings.Contains(n, "shape diverged") {
			found = true
		}
	}
	if !found {
		t.Fatalf("drop note missing: %v", agg.Notes)
	}

	// Single successful trial with no failures: the report passes through
	// untouched (no aggregate notes).
	solo := mk(0, 42, "7")
	agg = aggregate([]TrialResult{solo})
	if agg != solo.Report {
		t.Fatal("single-trial aggregate must be the report itself")
	}
}

func TestArtifactStream(t *testing.T) {
	res := Run(Config{Runners: syntheticSet(2), BaseSeed: 5, Reps: 2})
	var buf bytes.Buffer
	if err := res.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	var types []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("invalid JSONL: %v", err)
		}
		types = append(types, line["type"].(string))
		switch line["type"] {
		case "run":
			if v, ok := line["schema_version"].(float64); !ok || int(v) != ArtifactSchemaVersion {
				t.Fatalf("schema_version %v, want %d", line["schema_version"], ArtifactSchemaVersion)
			}
			if int64(line["base_seed"].(float64)) != 5 {
				t.Fatalf("base_seed %v", line["base_seed"])
			}
			if n := len(line["seeds"].([]any)); n != 4 {
				t.Fatalf("seed set size %d", n)
			}
		case "trial":
			if line["report"] == nil && line["err"] == nil {
				t.Fatal("trial line missing report and err")
			}
		case "summary":
			if line["trials"].(float64) != 4 || line["failed"].(float64) != 0 {
				t.Fatalf("summary %v", line)
			}
		}
	}
	want := []string{"run", "trial", "trial", "aggregate", "trial", "trial", "aggregate", "summary"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("line types %v want %v", types, want)
	}
}
