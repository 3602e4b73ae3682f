// Package harness runs the experiment registry in parallel. Every trial —
// one (experiment, replicate) pair — builds its own private sim.Engine from
// a seed derived as DeriveSeed(baseSeed, experimentID, replicate), so
// results are a pure function of the seed set and independent of how trials
// are packed onto goroutines: parallel output is byte-identical to serial
// output for the same configuration. Trials and the cells inside them share
// one parallelism budget, GOMAXPROCS goroutines (package par).
//
// On top of the fan-out the harness adds robustness (per-trial panic
// recovery and a wall-clock timeout with cooperative cancellation through
// sim.Engine.Interrupt) and multi-seed aggregation (mean±stddev [min,max]
// cells merged into an experiments.Report per experiment).
package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"vsched/internal/experiments"
	"vsched/internal/par"
	"vsched/internal/progress"
	"vsched/internal/telemetry"
)

// Config parameterises a harness run.
type Config struct {
	// Runners is the experiment set; nil means the full registry in paper
	// order.
	Runners []experiments.Runner
	// BaseSeed anchors the per-trial seed derivation. Replicate 0 of every
	// experiment runs with BaseSeed itself, so a -reps 1 harness run
	// reproduces the classic serial run bit for bit.
	BaseSeed int64
	// Reps is the number of replicate seeds per experiment (min 1).
	Reps int
	// Scale shrinks (<1) or stretches (>1) measurement windows.
	Scale float64
	// Verbose is forwarded to experiments.Options.
	Verbose bool
	// Timeout is the per-trial wall-clock budget; 0 disables it. A trial
	// that overruns has its engines interrupted and is recorded as failed
	// instead of killing the run.
	Timeout time.Duration
	// Obs, when non-nil, receives the trial lifecycle (run start/done,
	// trial start/done with run-level tallies, the trial's wall time and
	// truncated errors). It is the harness's one observation output: the
	// live HTTP stream and the stderr progress line are both readers of
	// this bus. Publishing goes through the bounded bus and reads nothing
	// back, so attaching it cannot perturb results. The harness publishes
	// no metric mirror, so a served run's /metrics carries only obshttp's
	// own vsched_obs_* counters (events published, scrapes served).
	Obs *progress.Bus
}

func (c Config) normalized() Config {
	if c.Runners == nil {
		c.Runners = experiments.Registry()
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	return c
}

// DeriveSeed maps (baseSeed, experimentID, replicate) to the trial's engine
// seed. Replicate 0 is the paper run and keeps the base seed untouched;
// higher replicates get an FNV-1a hash of the triple, so trial seeds are
// stable under any reordering, subsetting, or parallelism budget.
func DeriveSeed(base int64, experimentID string, replicate int) int64 {
	if replicate == 0 {
		return base
	}
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(base))
	binary.LittleEndian.PutUint64(buf[8:], uint64(replicate))
	h.Write(buf[:])
	h.Write([]byte(experimentID))
	return int64(h.Sum64() >> 1) // keep seeds non-negative
}

// TrialResult is the outcome of one (experiment, replicate) run.
type TrialResult struct {
	ExperimentID string
	Replicate    int
	Seed         int64
	// Report is the regenerated table/figure; nil when the trial failed.
	Report *experiments.Report
	// Err describes a panic or timeout; empty on success.
	Err      string
	TimedOut bool
	// WallTime is host time spent on the trial.
	WallTime time.Duration
	// Events is the number of simulation events the trial fired, summed
	// over every engine it built; Engines is how many it built.
	Events  uint64
	Engines int
	// Metrics is the flattened snapshot of every metrics registry the
	// trial tracked, keyed "<label>.<instrument>": its VMs' registries and
	// the published summaries of its latency-attribution profiles; nil when
	// the trial tracked none or was abandoned.
	Metrics map[string]float64
	// Telemetry holds the deterministic flight-recorder snapshot of every
	// telemetry recorder the trial tracked, keyed by recorder label; nil when
	// the trial tracked none.
	Telemetry map[string]*telemetry.Snapshot
}

// OK reports whether the trial produced a report.
func (t *TrialResult) OK() bool { return t.Report != nil && t.Err == "" }

// ExperimentResult groups one experiment's trials in replicate order.
type ExperimentResult struct {
	ID     string
	Title  string
	Trials []TrialResult
	// Aggregate merges the successful trials' reports into multi-seed
	// mean±stddev [min,max] cells. With a single successful trial it is that
	// trial's report verbatim. Nil when every trial failed.
	Aggregate *experiments.Report
}

// Result is a full harness run.
type Result struct {
	BaseSeed int64
	Reps     int
	// Workers is the parallelism budget the run had: GOMAXPROCS at its start.
	Workers     int
	Scale       float64
	Timeout     time.Duration
	WallTime    time.Duration
	Experiments []ExperimentResult
}

// Failed counts trials that produced no report.
func (r *Result) Failed() int {
	n := 0
	for _, ex := range r.Experiments {
		for i := range ex.Trials {
			if !ex.Trials[i].OK() {
				n++
			}
		}
	}
	return n
}

// Trials counts all trials.
func (r *Result) Trials() int {
	n := 0
	for _, ex := range r.Experiments {
		n += len(ex.Trials)
	}
	return n
}

// EventsFired sums simulation events over all trials.
func (r *Result) EventsFired() uint64 {
	var n uint64
	for _, ex := range r.Experiments {
		for i := range ex.Trials {
			n += ex.Trials[i].Events
		}
	}
	return n
}

// Seeds returns every trial seed in (experiment, replicate) order.
func (r *Result) Seeds() []int64 {
	var seeds []int64
	for _, ex := range r.Experiments {
		for i := range ex.Trials {
			seeds = append(seeds, ex.Trials[i].Seed)
		}
	}
	return seeds
}

// Run executes the configured trials through par.Map, under the process-wide
// budget of GOMAXPROCS goroutines that each trial's cells draw on too, and
// returns results in registry order regardless of completion order.
func Run(cfg Config) *Result {
	cfg = cfg.normalized()
	start := time.Now()

	type trialSpec struct {
		runner    experiments.Runner
		replicate int
		slot      *TrialResult
	}

	res := &Result{
		BaseSeed: cfg.BaseSeed,
		Reps:     cfg.Reps,
		Workers:  runtime.GOMAXPROCS(0),
		Scale:    cfg.Scale,
		Timeout:  cfg.Timeout,
	}
	res.Experiments = make([]ExperimentResult, len(cfg.Runners))
	var specs []trialSpec
	for i, r := range cfg.Runners {
		ex := &res.Experiments[i]
		ex.ID, ex.Title = r.ID, r.Title
		ex.Trials = make([]TrialResult, cfg.Reps)
		for rep := 0; rep < cfg.Reps; rep++ {
			ex.Trials[rep] = TrialResult{
				ExperimentID: r.ID,
				Replicate:    rep,
				Seed:         DeriveSeed(cfg.BaseSeed, r.ID, rep),
			}
			specs = append(specs, trialSpec{r, rep, &ex.Trials[rep]})
		}
	}

	track := newRunTracker(cfg, len(specs))
	track.start()

	// Each job owns its trial's result slot, so no locking is needed around
	// the slots; par.Map's join publishes the writes. runTrial recovers a
	// trial's panic into its slot, so no job panics.
	par.Map(len(specs), func(i int) struct{} {
		spec := specs[i]
		track.trialStart(spec.slot)
		runTrial(spec.slot, spec.runner, cfg)
		track.trialDone(spec.slot)
		return struct{}{}
	})

	for i := range res.Experiments {
		ex := &res.Experiments[i]
		ex.Aggregate = aggregate(ex.Trials)
	}
	res.WallTime = time.Since(start)
	track.finish(res)
	return res
}

// runTracker publishes the trial lifecycle onto the bounded bus
// (multi-producer safe) with run-level tallies.
type runTracker struct {
	obs   *progress.Bus
	total int64

	done   atomic.Int64
	failed atomic.Int64
}

func newRunTracker(cfg Config, total int) *runTracker {
	return &runTracker{obs: cfg.Obs, total: int64(total)}
}

func (t *runTracker) start() {
	t.obs.Publish(progress.Event{Kind: progress.KindRunStart, Total: t.total})
}

func (t *runTracker) trialStart(slot *TrialResult) {
	t.obs.Publish(progress.Event{
		Kind:      progress.KindTrialStart,
		Label:     slot.ExperimentID,
		Replicate: int32(slot.Replicate),
		Done:      t.done.Load(),
		Total:     t.total,
	})
}

func (t *runTracker) trialDone(slot *TrialResult) {
	done := t.done.Add(1)
	var failed int64
	if !slot.OK() {
		failed = t.failed.Add(1)
	} else {
		failed = t.failed.Load()
	}
	detail := slot.Err
	if len(detail) > 80 {
		detail = detail[:80]
	}
	t.obs.Publish(progress.Event{
		Kind:      progress.KindTrialDone,
		Label:     slot.ExperimentID,
		Detail:    detail,
		Replicate: int32(slot.Replicate),
		Done:      done,
		Total:     t.total,
		Failed:    failed,
		WallNS:    int64(slot.WallTime),
	})
}

// finish emits the terminal event.
func (t *runTracker) finish(res *Result) {
	t.obs.Publish(progress.Event{
		Kind:   progress.KindRunDone,
		Done:   t.done.Load(),
		Total:  t.total,
		Failed: int64(res.Failed()),
	})
}

// abandonGrace is how long a timed-out trial gets to unwind after its
// engines are interrupted before the worker stops waiting for it. Interrupt
// freezes every engine, so experiments unwind in microseconds; the grace
// only matters if a trial is stuck outside the simulator.
const abandonGrace = 2 * time.Second

type trialOutcome struct {
	report   *experiments.Report
	panicMsg string
}

// runTrial executes one trial with panic recovery and the wall-clock
// timeout, filling the result slot. A failure is final: the trial is
// deterministic, so a rerun would panic again.
func runTrial(slot *TrialResult, r experiments.Runner, cfg Config) {
	stats := &experiments.Stats{}
	opt := experiments.Options{
		Seed:    slot.Seed,
		Scale:   cfg.Scale,
		Verbose: cfg.Verbose,
		Stats:   stats,
	}
	start := time.Now()
	done := make(chan trialOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- trialOutcome{panicMsg: fmt.Sprintf("panic: %v", p)}
			}
		}()
		done <- trialOutcome{report: r.Run(opt)}
	}()

	finish := func(out trialOutcome, timedOut bool) {
		slot.WallTime = time.Since(start)
		slot.Events = stats.EventsFired()
		slot.Engines = stats.Engines()
		slot.Metrics = stats.MetricsSnapshot()
		slot.Telemetry = stats.TelemetrySnapshot()
		slot.TimedOut = timedOut
		switch {
		case timedOut:
			slot.Err = fmt.Sprintf("timeout: exceeded %v wall clock", cfg.Timeout)
		case out.panicMsg != "":
			slot.Err = out.panicMsg
		default:
			slot.Report = out.report
		}
	}

	if cfg.Timeout <= 0 {
		finish(<-done, false)
		return
	}
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	select {
	case out := <-done:
		finish(out, false)
	case <-timer.C:
		// Freeze every engine the trial built (and any it builds from here
		// on), then give it a moment to unwind. A report produced after an
		// interrupt is truncated garbage, so it is discarded either way.
		stats.Interrupt()
		select {
		case <-done:
			finish(trialOutcome{}, true)
		case <-time.After(abandonGrace):
			// The trial is stuck outside the simulator; abandon it. Do not
			// touch stats again: the runaway goroutine may still be writing.
			slot.WallTime = time.Since(start)
			slot.TimedOut = true
			slot.Err = fmt.Sprintf("timeout: exceeded %v wall clock (trial abandoned)", cfg.Timeout)
		}
	}
}
