package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vsched/internal/experiments"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// metricsRunner is a synthetic runner that tracks one registry, so the
// artifact round-trip exercises the per-trial metrics map.
func metricsRunner(id string) experiments.Runner {
	r := synthetic(id)
	inner := r.Run
	r.Run = func(o experiments.Options) *experiments.Report {
		reg := metrics.NewRegistry()
		reg.Gauge("spans").Set(12)
		reg.Gauge("steal_wait_share").Set(0.25)
		o.Stats.TrackRegistry(id+"/vm", reg)
		return inner(o)
	}
	return r
}

// TestArtifactRoundTrip writes an artifact and reads it back with
// ReadArtifact: header, per-trial metrics, aggregates and summary must all
// survive the trip.
func TestArtifactRoundTrip(t *testing.T) {
	res := Run(Config{
		Runners:  []experiments.Runner{metricsRunner("synA"), synthetic("synB")},
		BaseSeed: 7, Reps: 2,
	})
	var buf bytes.Buffer
	if err := res.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Run.SchemaVersion != ArtifactSchemaVersion {
		t.Fatalf("schema %d want %d", a.Run.SchemaVersion, ArtifactSchemaVersion)
	}
	if a.Run.BaseSeed != 7 || len(a.Run.Seeds) != 4 || a.Run.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("run header %+v (workers must be the GOMAXPROCS budget)", a.Run)
	}
	if len(a.Trials) != 4 {
		t.Fatalf("want 4 trials, got %d", len(a.Trials))
	}
	for _, tr := range a.Trials {
		if tr.Report == nil {
			t.Fatalf("trial %s/%d lost its report", tr.Experiment, tr.Replicate)
		}
		switch tr.Experiment {
		case "synA":
			if got := tr.Metrics["synA/vm.steal_wait_share"]; got != 0.25 {
				t.Fatalf("metrics lost: %v", tr.Metrics)
			}
		case "synB":
			if tr.Metrics != nil {
				t.Fatalf("synB tracked no registry, got %v", tr.Metrics)
			}
		}
	}
	if len(a.Aggregates) != 2 {
		t.Fatalf("want 2 aggregates, got %d", len(a.Aggregates))
	}
	if a.Summary == nil || a.Summary.Trials != 4 || a.Summary.Failed != 0 {
		t.Fatalf("summary %+v", a.Summary)
	}
}

// v2Artifact is a canned schema-2 artifact (pre-attribution), byte-for-byte
// in the shape WriteArtifact produced before the bump. Its fields are all
// still in the current schema, so they must decode.
const v2Artifact = `{"type":"run","schema_version":2,"base_seed":42,"reps":1,"workers":4,"scale":1,"experiments":["fig3"],"seeds":[42]}
{"type":"trial","experiment":"fig3","replicate":0,"seed":42,"wall_ms":12.5,"events":1000,"engines":1,"metrics":{"vm.sched.steals":3},"report":{"ID":"fig3","Title":"t","Header":["a"],"Rows":[["1"]]}}
{"type":"summary","wall_ms":13.1,"events":1000,"trials":1,"failed":0}
`

// v4Artifact is a canned schema-4 artifact (telemetry but no retries),
// byte-for-byte in the shape WriteArtifact produced before the v5 bump.
const v4Artifact = `{"type":"run","schema_version":4,"base_seed":42,"reps":1,"workers":4,"scale":1,"experiments":["fig3"],"seeds":[42]}
{"type":"trial","experiment":"fig3","replicate":0,"seed":42,"wall_ms":7.2,"events":700,"engines":1,"report":{"ID":"fig3","Title":"t","Header":["a"],"Rows":[["1"]]}}
{"type":"summary","wall_ms":7.7,"events":700,"trials":1,"failed":0}
`

// v5Artifact is a canned schema-5 artifact, byte-for-byte in the shape
// WriteArtifact produced before the v6 bump: a trial carrying the retry count
// that schema 6 no longer writes.
const v5Artifact = `{"type":"run","schema_version":5,"base_seed":42,"reps":1,"workers":2,"scale":1,"experiments":["fig3"],"seeds":[42]}
{"type":"trial","experiment":"fig3","replicate":0,"seed":42,"wall_ms":8.4,"events":900,"engines":2,"retries":1,"metrics":{"vm.sched.steals":4},"report":{"ID":"fig3","Title":"t","Header":["a"],"Rows":[["1"]]}}
{"type":"summary","wall_ms":8.9,"events":900,"trials":1,"failed":0}
`

// v7Artifact is a canned schema-7 artifact, byte-for-byte in the shape
// WriteArtifact produced before the v8 bump: a telemetry series carrying the
// Gorilla raw window ("raw_n", "raw") that schema 8 no longer writes.
const v7Artifact = `{"type":"run","schema_version":7,"base_seed":42,"reps":1,"workers":2,"scale":1,"experiments":["fleet"],"seeds":[42]}
{"type":"trial","experiment":"fleet","replicate":0,"seed":42,"wall_ms":5.5,"events":600,"engines":1,"metrics":{"vm.sched.steals":6},"telemetry":{"fleet/rec":{"interval_ns":10000000,"samples":3,"series":[{"name":"fleet.host0.steal_ema","count":3,"min":0.25,"max":0.5,"mean":0.375,"last":0.5,"raw_n":3,"raw":"Ax0AAAAAAJiWgD/QAAAAAAAA8AAAAAAJiWgNgFqC4A==","buckets":[{"t0":10000000,"t1":30000000,"min":0.25,"max":0.5,"sum":1.125,"count":3}]}]}},"report":{"ID":"fleet","Title":"t","Header":["a"],"Rows":[["1"]]}}
{"type":"summary","wall_ms":5.9,"events":600,"trials":1,"failed":0}
`

// TestReadArtifactBackwardCompat: an older artifact whose schema only lacked
// fields, or held fields since dropped, decodes every field the current
// schema still has.
func TestReadArtifactBackwardCompat(t *testing.T) {
	a, err := ReadArtifact(strings.NewReader(v2Artifact))
	if err != nil {
		t.Fatalf("v2 artifact must stay readable: %v", err)
	}
	if a.Run.SchemaVersion != 2 {
		t.Fatalf("v2 schema read as %d", a.Run.SchemaVersion)
	}
	if len(a.Trials) != 1 {
		t.Fatalf("v2 trials %d", len(a.Trials))
	}
	tr := a.Trials[0]
	if tr.Metrics["vm.sched.steals"] != 3 || tr.Report == nil || tr.Report.ID != "fig3" {
		t.Fatalf("v2 trial fields lost: %+v", tr)
	}
	if a.Summary == nil || a.Summary.Trials != 1 {
		t.Fatalf("v2 summary %+v", a.Summary)
	}

	a, err = ReadArtifact(strings.NewReader(v4Artifact))
	if err != nil {
		t.Fatalf("v4 artifact must stay readable: %v", err)
	}
	if a.Run.SchemaVersion != 4 {
		t.Fatalf("v4 schema read as %d", a.Run.SchemaVersion)
	}
	if tr := a.Trials[0]; tr.Events != 700 || tr.Report == nil || tr.Report.ID != "fig3" {
		t.Fatalf("v4 trial fields lost: %+v", tr)
	}

	a, err = ReadArtifact(strings.NewReader(v5Artifact))
	if err != nil {
		t.Fatalf("v5 artifact must stay readable: %v", err)
	}
	if a.Run.SchemaVersion != 5 || a.Run.Workers != 2 {
		t.Fatalf("v5 run header %+v", a.Run)
	}
	if tr := a.Trials[0]; tr.Events != 900 || tr.Engines != 2 ||
		tr.Metrics["vm.sched.steals"] != 4 || tr.Report == nil || tr.Report.ID != "fig3" {
		t.Fatalf("v5 trial fields lost: %+v", tr)
	}

	a, err = ReadArtifact(strings.NewReader(v7Artifact))
	if err != nil {
		t.Fatalf("v7 artifact must stay readable: %v", err)
	}
	if a.Run.SchemaVersion != 7 {
		t.Fatalf("v7 schema read as %d", a.Run.SchemaVersion)
	}
	wantSeries := telemetry.SeriesSnapshot{
		Name: "fleet.host0.steal_ema", Count: 3, Min: 0.25, Max: 0.5, Mean: 0.375, Last: 0.5,
		Buckets: []telemetry.Bucket{{T0: 10_000_000, T1: 30_000_000, Min: 0.25, Max: 0.5, Sum: 1.125, Count: 3}},
	}
	if tr := a.Trials[0]; tr.Metrics["vm.sched.steals"] != 6 || tr.Report == nil ||
		tr.Telemetry["fleet/rec"] == nil || tr.Telemetry["fleet/rec"].Samples != 3 ||
		!reflect.DeepEqual(tr.Telemetry["fleet/rec"].Series, []telemetry.SeriesSnapshot{wantSeries}) {
		t.Fatalf("v7 trial telemetry lost: %+v", tr)
	}
}

func TestReadArtifactRejectsGarbage(t *testing.T) {
	if _, err := ReadArtifact(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line must error")
	}
	if _, err := ReadArtifact(strings.NewReader(`{"type":"summary","trials":1}` + "\n")); err == nil {
		t.Fatal("artifact without a run header must error")
	}
	// Unknown record types from future schema versions are skipped, not fatal.
	future := v2Artifact + `{"type":"hologram","x":1}` + "\n"
	if _, err := ReadArtifact(strings.NewReader(future)); err != nil {
		t.Fatalf("unknown record type must be skipped: %v", err)
	}
}

// TestHarnessAttributionFlows runs the real attrib experiment once through
// the harness at a tiny scale and checks each profile's summary reaches the
// trial's metrics and the artifact.
func TestHarnessAttributionFlows(t *testing.T) {
	r, ok := experiments.ByID("attrib")
	if !ok {
		t.Fatal("attrib experiment missing from registry")
	}
	res := Run(Config{Runners: []experiments.Runner{r}, BaseSeed: 42, Scale: 0.05})
	tr := &res.Experiments[0].Trials[0]
	if !tr.OK() {
		t.Fatalf("attrib trial failed: %s", tr.Err)
	}
	want := "attrib/balanced-5ms/baseline.steal_wait_share"
	if _, ok := tr.Metrics[want]; !ok {
		keys := make([]string, 0, len(tr.Metrics))
		for k := range tr.Metrics {
			keys = append(keys, k)
		}
		t.Fatalf("metrics missing %q (have e.g. %v)", want, keys[:min(4, len(keys))])
	}
	var buf bytes.Buffer
	if err := res.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Trials[0].Metrics[want]; got != tr.Metrics[want] {
		t.Fatalf("artifact metric %v != trial %v", got, tr.Metrics[want])
	}
}

// telemetryRunner is a synthetic runner that drives a small flight recorder,
// so the artifact round-trip exercises the schema-4 trial field.
func telemetryRunner(id string) experiments.Runner {
	r := synthetic(id)
	inner := r.Run
	r.Run = func(o experiments.Options) *experiments.Report {
		eng := sim.NewEngine(o.Seed)
		o.Stats.Track(eng)
		rec := telemetry.New(eng, telemetry.Config{Interval: 10 * sim.Millisecond})
		n := 0.0
		rec.AddSource(id+".", telemetry.SourceFunc(func(now sim.Time, emit func(string, float64)) {
			n++
			emit("ticks", n)
		}))
		rec.Start()
		eng.RunFor(sim.Second)
		o.Stats.TrackTelemetry(id+"/rec", rec)
		return inner(o)
	}
	return r
}

// TestArtifactTelemetryRoundTrip: the telemetry map must survive a
// write/read cycle with every sample in the embedded snapshot's buckets.
func TestArtifactTelemetryRoundTrip(t *testing.T) {
	res := Run(Config{
		Runners:  []experiments.Runner{telemetryRunner("synT"), synthetic("synB")},
		BaseSeed: 9,
	})
	var buf bytes.Buffer
	if err := res.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Run.SchemaVersion != ArtifactSchemaVersion {
		t.Fatalf("schema %d want %d", a.Run.SchemaVersion, ArtifactSchemaVersion)
	}
	for _, tr := range a.Trials {
		switch tr.Experiment {
		case "synT":
			snap := tr.Telemetry["synT/rec"]
			if snap == nil {
				t.Fatalf("telemetry snapshot lost: %v", tr.Telemetry)
			}
			var ticks *telemetry.SeriesSnapshot
			for i := range snap.Series {
				if snap.Series[i].Name == "synT.ticks" {
					ticks = &snap.Series[i]
				}
			}
			if ticks == nil || ticks.Count == 0 {
				t.Fatalf("synT.ticks series missing from artifact snapshot")
			}
			bs := ticks.Buckets
			if len(bs) == 0 {
				t.Fatalf("embedded snapshot holds no buckets")
			}
			if last := bs[len(bs)-1]; last.Count != 1 || last.Sum != float64(ticks.Count) {
				t.Fatalf("last bucket %+v inconsistent with count %d", last, ticks.Count)
			}
		case "synB":
			if tr.Telemetry != nil {
				t.Fatalf("synB tracked no telemetry, got %v", tr.Telemetry)
			}
		}
	}
}
