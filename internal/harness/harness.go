// Package harness runs the experiment registry in parallel. Every trial —
// one (experiment, replicate) pair — builds its own private sim.Engine from
// a seed derived as DeriveSeed(baseSeed, experimentID, replicate), so
// results are a pure function of the seed set and independent of how trials
// are packed onto workers: parallel output is byte-identical to serial
// output for the same configuration.
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
	"io"
	"runtime"
	"sync"
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
	// Workers bounds the worker pool, the number of trials run at once; <1
	// means GOMAXPROCS. Within a trial, an experiment's independent
	// simulations (its cells) fan out over GOMAXPROCS on their own, so
	// Workers 1 is one trial at a time and GOMAXPROCS=1 the fully serial run.
	Workers int
	// Timeout is the per-trial wall-clock budget; 0 disables it. A trial
	// that overruns has its engines interrupted and is recorded as failed
	// instead of killing the run.
	Timeout time.Duration
	// Retries is the number of additional attempts a trial gets after a
	// panic or timeout (0 = fail fast). Every attempt reruns the identical
	// (seed, scale) trial, so a retried success is byte-identical to a
	// first-try success and determinism of the output is unaffected; only
	// wall-clock failures (a timeout on a loaded machine) gain anything
	// from a second try. The attempts consumed are recorded on the trial.
	Retries int
	// Obs, when non-nil, receives the trial lifecycle (run start/done,
	// trial start/done with retry counts and truncated errors) for live HTTP
	// observation. Publishing goes through the lock-free bounded bus and
	// reads nothing back, so attaching it cannot perturb results.
	Obs *progress.Publisher
	// Heartbeat, when non-nil, receives a plain-text progress line (trials
	// done/total, failures, mean trial wall time, ETA) every HeartbeatEvery.
	// Intended for stderr on long interactive runs; off by default so CI
	// logs stay clean.
	Heartbeat io.Writer
	// HeartbeatEvery rate-limits heartbeat lines (default 2s).
	HeartbeatEvery time.Duration
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
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// DeriveSeed maps (baseSeed, experimentID, replicate) to the trial's engine
// seed. Replicate 0 is the paper run and keeps the base seed untouched;
// higher replicates get an FNV-1a hash of the triple, so trial seeds are
// stable under any reordering, subsetting, or worker count.
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
	// Retries is how many extra attempts the trial consumed under
	// Config.Retries; 0 means it settled on the first try.
	Retries int
	// WallTime is host time spent on the trial.
	WallTime time.Duration
	// Events is the number of simulation events the trial fired, summed
	// over every engine it built; Engines is how many it built.
	Events  uint64
	Engines int
	// Metrics is the flattened snapshot of every VM metrics registry the
	// trial built, keyed "<vm-label>.<instrument>"; nil when the trial
	// deployed no VMs or was abandoned.
	Metrics map[string]float64
	// Attribution is the flattened snapshot of every latency-attribution
	// profile the trial tracked (experiments that run latprof), keyed
	// "<profile-label>.<metric>"; nil when the trial tracked none.
	Attribution map[string]float64
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
	BaseSeed    int64
	Reps        int
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

// Run executes the configured trials over a bounded worker pool and returns
// results in registry order regardless of completion order.
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
		Workers:  cfg.Workers,
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
	par.Map(len(specs), cfg.Workers, func(i int) struct{} {
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

// runTracker is the harness's progress side-channel: trial lifecycle events
// onto the bounded bus (multi-producer safe) plus the optional stderr
// heartbeat. Labels are interned before the workers start, so the per-trial
// publish path takes no locks beyond the bus's atomics; only rare failure
// details hit the label-table mutex.
type runTracker struct {
	obs    *progress.Publisher
	labels map[string]int32
	total  int64

	done    atomic.Int64
	failed  atomic.Int64
	wallNS  atomic.Int64
	started time.Time

	hb      io.Writer
	hbEvery time.Duration
	stop    chan struct{}
	stopped sync.WaitGroup
}

func newRunTracker(cfg Config, total int) *runTracker {
	t := &runTracker{
		obs:     cfg.Obs,
		total:   int64(total),
		hb:      cfg.Heartbeat,
		hbEvery: cfg.HeartbeatEvery,
		started: time.Now(),
	}
	if t.hbEvery <= 0 {
		t.hbEvery = 2 * time.Second
	}
	if t.obs != nil {
		t.labels = make(map[string]int32, len(cfg.Runners))
		for _, r := range cfg.Runners {
			t.labels[r.ID] = t.obs.Label(r.ID)
		}
	}
	return t
}

func (t *runTracker) start() {
	if t.obs != nil {
		t.obs.Publish(progress.Event{Kind: progress.KindRunStart, Total: t.total})
	}
	if t.hb == nil {
		return
	}
	t.stop = make(chan struct{})
	t.stopped.Add(1)
	go func() {
		defer t.stopped.Done()
		tick := time.NewTicker(t.hbEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.beat()
			}
		}
	}()
}

// beat writes one plain-text progress line: done/total, failures, mean trial
// wall time, and a worker-corrected ETA for the remainder.
func (t *runTracker) beat() {
	done := t.done.Load()
	line := fmt.Sprintf("harness: %d/%d trials", done, t.total)
	if f := t.failed.Load(); f > 0 {
		line += fmt.Sprintf(" (%d failed)", f)
	}
	if done > 0 {
		mean := time.Duration(t.wallNS.Load() / done).Round(time.Millisecond)
		line += fmt.Sprintf(", mean %v/trial", mean)
		if left := t.total - done; left > 0 {
			elapsed := time.Since(t.started)
			eta := time.Duration(float64(elapsed) / float64(done) * float64(left)).Round(time.Second)
			line += fmt.Sprintf(", eta ~%v", eta)
		}
	}
	fmt.Fprintln(t.hb, line)
}

func (t *runTracker) trialStart(slot *TrialResult) {
	if t.obs == nil {
		return
	}
	t.obs.Publish(progress.Event{
		Kind:      progress.KindTrialStart,
		Label:     t.labels[slot.ExperimentID],
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
	t.wallNS.Add(int64(slot.WallTime))
	if t.obs == nil {
		return
	}
	var detail int32
	if slot.Err != "" {
		msg := slot.Err
		if len(msg) > 80 {
			msg = msg[:80]
		}
		detail = t.obs.Label(msg)
	}
	t.obs.Publish(progress.Event{
		Kind:      progress.KindTrialDone,
		Label:     t.labels[slot.ExperimentID],
		Detail:    detail,
		Replicate: int32(slot.Replicate),
		Done:      done,
		Total:     t.total,
		Failed:    failed,
		Retries:   int64(slot.Retries),
	})
}

// finish emits the terminal event and the final heartbeat, then stops the
// heartbeat goroutine.
func (t *runTracker) finish(res *Result) {
	if t.stop != nil {
		close(t.stop)
		t.stopped.Wait()
		t.beat()
	}
	if t.obs != nil {
		t.obs.Publish(progress.Event{
			Kind:   progress.KindRunDone,
			Done:   t.done.Load(),
			Total:  t.total,
			Failed: int64(res.Failed()),
		})
	}
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

// runTrial executes one trial with panic recovery, the wall-clock timeout,
// and the bounded retry budget, filling the result slot. WallTime covers
// every attempt; the stats and report are the final attempt's.
func runTrial(slot *TrialResult, r experiments.Runner, cfg Config) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		attemptTrial(slot, r, cfg)
		slot.Retries = attempt
		if slot.OK() || attempt >= cfg.Retries {
			slot.WallTime = time.Since(start)
			return
		}
		// Clear the failure before the next attempt; a later success must
		// look exactly like a first-try success (bar the retry count).
		slot.Report, slot.Err, slot.TimedOut = nil, "", false
	}
}

// attemptTrial is a single attempt of one trial.
func attemptTrial(slot *TrialResult, r experiments.Runner, cfg Config) {
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
		slot.Attribution = stats.AttributionSnapshot()
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
