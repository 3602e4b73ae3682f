package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run sets its workload up at least minSetupReps times, and repeats until
// a tenth of its measurement budget has passed in set-up; setup_s is the
// median. The machine slows in bursts of about half a second, so set-ups of
// well under a millisecond (paper, fleet-observed) sampled over a shorter
// window could all land in one burst and move the median.
const (
	minSetupReps   = 5
	setupBudgetDiv = 10
)

// warmupSeed seeds the warm-up pass, so its work is the same whatever -seed
// the run measures.
const warmupSeed = 1

// runWorkload is one worker's whole run: set-up, a warm-up pass, the timed
// region, the output checks and, when traced, the fixtures and the span
// file.
func runWorkload(w *workload, cfg config, stderr io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer(w.name)
	}
	root := tr.begin("vbench "+w.name, 0)
	budget := time.Duration(cfg.seconds) * time.Second

	// Set-up: golden load and input generation. The plan of the last
	// repetition is the one measured.
	var (
		pl    *plan
		gold  goldenFile
		setup []float64
		gen   = map[string][]float64{}
	)
	setupStart := time.Now()
	for len(setup) < minSetupReps || time.Since(setupStart) < budget/setupBudgetDiv {
		runtime.GC()
		s := tr.begin("setup", root)
		t0 := time.Now()
		var err error
		if gold, err = loadGolden(cfg.record); err != nil {
			return nil, err
		}
		pl = w.build(cfg.seed, cfg.size, tr, s)
		d := time.Since(t0)
		tr.end(s, nil)
		setup = append(setup, d.Seconds())
		for k, v := range pl.gen {
			gen[k] = append(gen[k], v)
		}
	}

	// A warm-up pass over the smoke-size ops, outside every timer, so
	// first-touch costs stay out of the timed region.
	ws := tr.begin("warmup", root)
	for _, o := range w.build(warmupSeed, "smoke", tr, ws).ops {
		s := tr.begin(o.name, ws)
		o.run(tr, s)
		tr.end(s, nil)
	}
	tr.end(ws, nil)

	x := &executor{ops: pl.ops, stats: make([]opStats, len(pl.ops)), tr: tr, stderr: stderr}
	s := tr.begin("timed", root)
	selfBefore := tr.selfTime()
	p0 := readProbe()
	x.loop(budget, s)
	region := since(p0)
	traceSelf := tr.selfTime() - selfBefore
	tr.end(s, map[string]float64{"mallocs": region.allocs, "bytes": region.allocBytes})

	key := goldenKey(w.name, cfg.seed, cfg.size)
	if err := x.verify(key, gold, cfg.record); err != nil {
		return nil, err
	}

	r := &result{
		Workload:  w.name,
		Seed:      cfg.seed,
		Size:      cfg.size,
		Trace:     cfg.trace,
		Passes:    x.passes(),
		Attempted: x.attempted(),
		Failed:    x.failed(),
		Metrics:   map[string]float64{},
	}
	r.Correct = r.Failed == 0
	if !cfg.trace {
		r.Metrics["wall_s"] = x.passWall()
		r.Metrics["cpu_s"] = x.sumMedian(func(s sample) float64 { return s.cpu })
		r.Metrics["setup_s"] = median(setup)
		r.Metrics["events_per_s"] = x.eventRate()
		return r, nil
	}

	layer := x.layerMetrics(region)
	for k, v := range gen {
		layer[k] = median(v)
	}
	layer["bench.trace_overhead_frac"] = traceSelf.Seconds() / (region.wall - traceSelf.Seconds())
	if pl.fixtures != nil {
		fs := tr.begin("fixtures", root)
		pl.fixtures(tr, fs, layer)
		tr.end(fs, nil)
	}
	for _, m := range perLayer {
		r.Metrics[m.name] = layer[m.name]
	}
	tr.end(root, nil)
	path := filepath.Join(buildDir(), "vbench-trace-"+w.name+".json")
	if err := writeTrace(path, tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "vbench: %s: spans written to %s\n", w.name, path)
	return r, nil
}

// buildDir is where the benchmark's outputs go: $CARGO_TARGET_DIR when set
// (bench/run.sh builds there), else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func writeTrace(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the tracer's own cost so far (0 when untraced).
func (t *tracer) selfTime() time.Duration {
	if t == nil {
		return 0
	}
	return t.self
}

// opStats accumulates one op's executions.
type opStats struct {
	runs, fails int
	samples     []sample // successful executions only
	first       opResult
	done        bool // first is set
}

// executor runs a plan's ops and keeps their accounts.
type executor struct {
	ops    []op
	stats  []opStats
	tr     *tracer
	stderr io.Writer
}

// loop runs passes over the ops within budget. The first pass always
// completes; after it, an op starts only while its median so far fits in what
// is left of the budget, so the timed region outlasts a budget longer than
// one pass by at most one op's deviation from its median.
func (x *executor) loop(budget time.Duration, parent int) {
	start := time.Now()
	for pass := 0; ; pass++ {
		for i := range x.ops {
			if pass > 0 {
				est := time.Duration(x.opMedian(i, wallOf) * float64(time.Second))
				if est > budget-time.Since(start) {
					return
				}
			}
			x.exec(i, parent)
		}
	}
}

func wallOf(s sample) float64 { return s.wall }

// exec runs op i once. A panic (an experiment gate or a conservation ledger)
// or a digest that differs from the op's first execution fails it.
func (x *executor) exec(i, parent int) {
	o, st := &x.ops[i], &x.stats[i]
	// Every op starts from a collected heap, as a testing.B benchmark does,
	// so the previous op's garbage is not charged to this one.
	runtime.GC()
	s := x.tr.begin(o.name, parent)
	p0 := readProbe()
	res, err := call(o, x.tr, s)
	smp := since(p0)
	x.tr.end(s, sampleArgs(smp, res.simEvents))
	st.runs++
	switch {
	case err != nil:
		x.fail(st, 1, "%s: %v", o.name, err)
	case st.done && res.digest != st.first.digest:
		x.fail(st, 1, "%s: digest %s differs from this run's first execution %s", o.name, res.digest, st.first.digest)
	default:
		if !st.done {
			st.first, st.done = res, true
		}
		st.samples = append(st.samples, smp)
	}
}

func call(o *op, tr *tracer, parent int) (res opResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return o.run(tr, parent), nil
}

func (x *executor) fail(st *opStats, n int, format string, args ...any) {
	st.fails = min(st.fails+n, st.runs)
	fmt.Fprintf(x.stderr, "vbench: FAIL "+format+"\n", args...)
}

// verify checks what a run cannot check op by op: each observed micro cell
// equals its bare twin, and every digest equals the golden for this key. A
// missing key prints the digests instead; record mode writes them.
func (x *executor) verify(key string, gold goldenFile, record bool) error {
	digests := map[string]string{}
	for i, o := range x.ops {
		if st := &x.stats[i]; st.done {
			digests[o.name] = st.first.digest
		}
	}
	for i, o := range x.ops {
		if o.twin != "" && digests[o.name] != digests[o.twin] {
			x.fail(&x.stats[i], x.stats[i].runs, "%s: result %s differs from bare twin %s %s",
				o.name, digests[o.name], o.twin, digests[o.twin])
		}
	}
	if record {
		if x.failed() > 0 {
			return fmt.Errorf("not recording %s: %d op executions failed", key, x.failed())
		}
		gold[key] = digests
		if err := gold.save(); err != nil {
			return err
		}
		fmt.Fprintf(x.stderr, "vbench: recorded %s in %s\n", key, goldenPath)
		return nil
	}
	want, ok := gold[key]
	if !ok {
		fmt.Fprintf(x.stderr, "vbench: no golden for %s; digests:\n", key)
		for _, o := range x.ops {
			fmt.Fprintf(x.stderr, "  %s %s\n", o.name, digests[o.name])
		}
		return nil
	}
	for i, o := range x.ops {
		if got := digests[o.name]; got != want[o.name] {
			x.fail(&x.stats[i], x.stats[i].runs, "%s: digest %s, golden %s has %s", o.name, got, key, want[o.name])
		}
	}
	return nil
}

func (x *executor) attempted() int {
	n := 0
	for i := range x.stats {
		n += x.stats[i].runs
	}
	return n
}

func (x *executor) failed() int {
	n := 0
	for i := range x.stats {
		n += x.stats[i].fails
	}
	return n
}

// passes is how many passes the timed region ran, counting a partial one.
func (x *executor) passes() float64 {
	return float64(x.attempted()) / float64(len(x.ops))
}

// sumMedian sums, over the ops, the median of f over each op's executions:
// the cost of one pass.
func (x *executor) sumMedian(f func(sample) float64) float64 {
	total := 0.0
	for i := range x.stats {
		total += x.opMedian(i, f)
	}
	return total
}

func (x *executor) opMedian(i int, f func(sample) float64) float64 {
	vals := make([]float64, len(x.stats[i].samples))
	for j, s := range x.stats[i].samples {
		vals[j] = f(s)
	}
	return median(vals)
}

func (x *executor) passWall() float64 {
	return x.sumMedian(wallOf)
}

// eventRate is simulated work per host second over every successful
// execution of the timed region.
func (x *executor) eventRate() float64 {
	var work, wall float64
	for i := range x.stats {
		st := &x.stats[i]
		work += float64(st.first.work) * float64(len(st.samples))
		for _, s := range st.samples {
			wall += s.wall
		}
	}
	if wall == 0 {
		return 0
	}
	return work / wall
}

// layerMetrics derives the per-layer metrics the ops themselves measure;
// region is the whole timed region's cost.
func (x *executor) layerMetrics(region sample) map[string]float64 {
	layer := map[string]float64{}
	var simEvents, work float64
	for i, o := range x.ops {
		st := &x.stats[i]
		layer[o.timeKey] += x.opMedian(i, wallOf)
		for k, v := range st.first.counts {
			layer[k] += v
		}
		simEvents += float64(st.first.simEvents)
		work += float64(st.first.work)
	}
	wall := x.passWall()
	layer["sim.events"] = simEvents
	if simEvents > 0 {
		layer["sim.ns_per_event"] = wall * 1e9 / simEvents
	}
	if work > 0 {
		layer["runtime.allocs_per_event"] = x.sumMedian(func(s sample) float64 { return s.allocs }) / work
		layer["runtime.alloc_bytes_per_event"] = x.sumMedian(func(s sample) float64 { return s.allocBytes }) / work
	}
	layer["runtime.gc_cycles"] = x.sumMedian(func(s sample) float64 { return s.gcCycles })
	if region.totalCPU > 0 {
		layer["runtime.gc_cpu_frac"] = region.gcCPU / region.totalCPU
	}
	if units := layer["fleet.macro.work_units"]; units > 0 {
		layer["fleet.macro.ns_per_work_unit"] = wall * 1e9 / units
		layer["fleet.macro.ns_per_host_epoch"] = wall * 1e9 / layer["fleet.macro.host_epochs"]
	}
	for _, g := range []string{"cfs", "vsched"} {
		if bare := layer["fleet.micro."+g+".bare.run_s"]; bare > 0 {
			layer["fleet.micro."+g+".obs_overhead_frac"] = layer["fleet.micro."+g+".observed.run_s"]/bare - 1
		}
	}
	return layer
}
