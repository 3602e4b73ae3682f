package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"strings"

	"vsched/internal/experiments"
	"vsched/internal/telemetry"
)

// Text renders the run deterministically: one report per experiment in
// registry order, aggregated across replicates, with failures summarised in
// place. The output is a pure function of (seed set, scale, experiment set)
// — wall times and the parallelism budget never appear — so serial and
// parallel runs of the same configuration produce byte-identical text.
func (r *Result) Text() string {
	var b strings.Builder
	for i := range r.Experiments {
		ex := &r.Experiments[i]
		if ex.Aggregate != nil {
			b.WriteString(ex.Aggregate.String())
		} else {
			fmt.Fprintf(&b, "== %s: %s ==\n", ex.ID, ex.Title)
			for j := range ex.Trials {
				t := &ex.Trials[j]
				fmt.Fprintf(&b, "FAILED rep %d (seed %d): %s\n", t.Replicate, t.Seed, t.Err)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ArtifactSchemaVersion stamps the "run" header so consumers can tell
// artifact generations apart. History: 1 (implicit, PR 1) single-VM
// experiment reports; 2 adds the version field itself and covers
// fleet-shaped reports (the fleet experiment's per-cell rows and fleet.*
// metrics namespaces); 3 adds the per-trial "attribution" map (flattened
// latency-attribution profiles, keyed "<profile-label>.<metric>") and is
// otherwise a strict superset of 2; 4 adds the per-trial "telemetry" map
// (deterministic flight-recorder snapshots — Gorilla-compressed raw chunks
// plus rollup buckets — keyed by recorder label) and is otherwise a strict
// superset of 3; 5 adds the per-trial "retries" count (attempts consumed
// under a retry budget) and is otherwise a strict superset of 4; 6 drops
// "retries" again (trials are deterministic and no longer retried) and
// records the parallelism budget, GOMAXPROCS at run start, as "workers"; 7
// drops "attribution": each latency-attribution profile's summary is a
// tracked registry, so its "<profile-label>.<metric>" keys sit in "metrics"
// beside the VM keys (ReadArtifact merges a v3–v6 trial's attribution map
// into its Metrics); 8 drops each telemetry series' "raw_n" and "raw"
// (the Gorilla raw window): a series is one store of buckets, one sample
// per bucket until it fills, so its "buckets" alone carry the history
// (ReadArtifact ignores the raw fields of a v4–v7 series).
const ArtifactSchemaVersion = 8

// Artifact line types. A run artifact is JSON lines: one "run" header with
// the full configuration and seed set, one "trial" line per trial (with its
// report, or the error that replaced it), and one "summary" trailer with the
// wall-clock totals that deliberately stay out of the deterministic header.
// The record types are exported so downstream analysis tooling can decode
// artifacts without re-declaring the schema; ReadArtifact does exactly that.
type RunRecord struct {
	Type          string   `json:"type"` // "run"
	SchemaVersion int      `json:"schema_version"`
	BaseSeed      int64    `json:"base_seed"`
	Reps          int      `json:"reps"`
	Workers       int      `json:"workers"`
	Scale         float64  `json:"scale"`
	TimeoutMS     int64    `json:"timeout_ms,omitempty"`
	Experiments   []string `json:"experiments"`
	Seeds         []int64  `json:"seeds"`
}

type TrialRecord struct {
	Type       string             `json:"type"` // "trial"
	Experiment string             `json:"experiment"`
	Replicate  int                `json:"replicate"`
	Seed       int64              `json:"seed"`
	WallMS     float64            `json:"wall_ms"`
	Events     uint64             `json:"events"`
	Engines    int                `json:"engines"`
	Err        string             `json:"err,omitempty"`
	TimedOut   bool               `json:"timed_out,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Telemetry maps recorder label to the trial's deterministic
	// flight-recorder snapshot (schema >= 4); absent in older artifacts.
	Telemetry map[string]*telemetry.Snapshot `json:"telemetry,omitempty"`
	Report    *experiments.Report            `json:"report,omitempty"`
}

type AggregateRecord struct {
	Type       string              `json:"type"` // "aggregate"
	Experiment string              `json:"experiment"`
	Reps       int                 `json:"reps"`
	Report     *experiments.Report `json:"report"`
}

type SummaryRecord struct {
	Type   string  `json:"type"` // "summary"
	WallMS float64 `json:"wall_ms"`
	Events uint64  `json:"events"`
	Trials int     `json:"trials"`
	Failed int     `json:"failed"`
}

// WriteArtifact streams the run as JSON lines to w.
func (r *Result) WriteArtifact(w io.Writer) error {
	enc := json.NewEncoder(w)
	ids := make([]string, len(r.Experiments))
	for i := range r.Experiments {
		ids[i] = r.Experiments[i].ID
	}
	if err := enc.Encode(RunRecord{
		Type:          "run",
		SchemaVersion: ArtifactSchemaVersion,
		BaseSeed:      r.BaseSeed,
		Reps:          r.Reps,
		Workers:       r.Workers,
		Scale:         r.Scale,
		TimeoutMS:     r.Timeout.Milliseconds(),
		Experiments:   ids,
		Seeds:         r.Seeds(),
	}); err != nil {
		return err
	}
	for i := range r.Experiments {
		ex := &r.Experiments[i]
		for j := range ex.Trials {
			t := &ex.Trials[j]
			if err := enc.Encode(TrialRecord{
				Type:       "trial",
				Experiment: t.ExperimentID,
				Replicate:  t.Replicate,
				Seed:       t.Seed,
				WallMS:     float64(t.WallTime.Microseconds()) / 1000,
				Events:     t.Events,
				Engines:    t.Engines,
				Err:        t.Err,
				TimedOut:   t.TimedOut,
				Metrics:    t.Metrics,
				Telemetry:  t.Telemetry,
				Report:     t.Report,
			}); err != nil {
				return err
			}
		}
		if r.Reps > 1 && ex.Aggregate != nil {
			if err := enc.Encode(AggregateRecord{
				Type:       "aggregate",
				Experiment: ex.ID,
				Reps:       len(ex.Trials),
				Report:     ex.Aggregate,
			}); err != nil {
				return err
			}
		}
	}
	return enc.Encode(SummaryRecord{
		Type:   "summary",
		WallMS: float64(r.WallTime.Microseconds()) / 1000,
		Events: r.EventsFired(),
		Trials: r.Trials(),
		Failed: r.Failed(),
	})
}

// Artifact is a decoded run artifact, in stream order.
type Artifact struct {
	Run        RunRecord
	Trials     []TrialRecord
	Aggregates []AggregateRecord
	Summary    *SummaryRecord
}

// ReadArtifact decodes a JSONL artifact produced by any schema version so
// far. Version 1 predates the schema_version field and decodes with
// SchemaVersion 1; a version 3–6 trial's attribution map is merged into its
// Metrics (attribution labels are never VM labels, so no key collides);
// version 3 lacks the telemetry map (left nil); version 5's per-trial
// retries count and a v4–v7 telemetry series' raw window are ignored;
// unknown line types are skipped, so newer minor additions stay readable
// too.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	a := &Artifact{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26) // report rows can be wide
	sawRun := false
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("artifact line %d: %w", n, err)
		}
		var err error
		switch head.Type {
		case "run":
			err = json.Unmarshal(line, &a.Run)
			if a.Run.SchemaVersion == 0 {
				a.Run.SchemaVersion = 1 // v1 had no schema_version field
			}
			sawRun = true
		case "trial":
			var t struct {
				TrialRecord
				Attribution map[string]float64 `json:"attribution"`
			}
			if err = json.Unmarshal(line, &t); err == nil {
				if len(t.Attribution) > 0 && t.Metrics == nil {
					t.Metrics = make(map[string]float64, len(t.Attribution))
				}
				maps.Copy(t.Metrics, t.Attribution)
				a.Trials = append(a.Trials, t.TrialRecord)
			}
		case "aggregate":
			var ag AggregateRecord
			if err = json.Unmarshal(line, &ag); err == nil {
				a.Aggregates = append(a.Aggregates, ag)
			}
		case "summary":
			var s SummaryRecord
			if err = json.Unmarshal(line, &s); err == nil {
				a.Summary = &s
			}
		default:
			// Forward compatibility: ignore record types this reader predates.
		}
		if err != nil {
			return nil, fmt.Errorf("artifact line %d (%s): %w", n, head.Type, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawRun {
		return nil, fmt.Errorf("artifact: no run header found")
	}
	return a, nil
}
