package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"vsched/internal/cloudgen"
	"vsched/internal/experiments"
	"vsched/internal/faults"
	"vsched/internal/fleet"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
	"vsched/internal/vtrace"
)

// workload is one named set of inputs. build generates the inputs for
// (seed, size) — the seed reaches only the input generators, never the
// simulator — and returns the ops a pass runs.
type workload struct {
	name  string
	build func(seed int64, size string, tr *tracer, parent int) *plan
}

var workloads = []workload{
	{"paper", buildPaper},
	{"cloud", func(seed int64, size string, tr *tracer, parent int) *plan {
		return buildCloud(seed, size, false, tr, parent)
	}},
	{"cloud-faults", func(seed int64, size string, tr *tracer, parent int) *plan {
		return buildCloud(seed, size, true, tr, parent)
	}},
	{"fleet-observed", buildFleet},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// plan is a workload's generated inputs, turned into ops.
type plan struct {
	ops []op
	// gen holds input-generation seconds by per-layer metric name.
	gen map[string]float64
	// fixtures, when set, run after the timed region of a traced run and
	// write per-layer metrics.
	fixtures func(tr *tracer, parent int, layer map[string]float64)
}

// op is the unit of measured work: one experiment, one macro cell or one
// micro cell.
type op struct {
	name string
	// timeKey is the per-layer metric this op's median wall time adds to.
	timeKey string
	// twin names an op whose digest this one must equal: the bare twin of an
	// observed micro cell.
	twin string
	run  func(tr *tracer, parent int) opResult
}

// opResult is what one op execution produced. Everything but timing is
// deterministic, so repeated executions must agree.
type opResult struct {
	digest    string
	work      uint64 // simulated work units behind events_per_s
	simEvents uint64 // engine events fired
	// counts are per-layer counters (and internal denominators) by name.
	counts map[string]float64
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// --- paper ---

// paperIDs are the paper's tables and figures, in registry order.
var paperIDs = []string{
	"fig2", "fig3", "fig4", "fig10a", "fig10b", "table2", "fig11", "fig12", "fig13",
	"fig14", "table3", "fig15", "table4", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
}

// smokePaperIDs are the cheapest paper experiments: a pipeline check.
var smokePaperIDs = []string{"fig3", "fig10a", "fig10b", "table2", "fig11", "table4"}

// paperScale shrinks measurement windows so one pass of the 19 experiments
// fits the run budget; warmups keep their 4 s floor, so the suite keeps its
// per-experiment mix of work.
const paperScale = 0.05

// paperGroup is the per-layer bucket of an experiment: the four that take
// most of the suite's wall time, fig18, and the rest.
func paperGroup(id string) string {
	switch id {
	case "fig12", "fig13", "fig15", "fig18", "fig19":
		return id
	}
	return "other"
}

func buildPaper(seed int64, size string, _ *tracer, _ int) *plan {
	ids := paperIDs
	if size == "smoke" {
		ids = smokePaperIDs
	}
	pl := &plan{fixtures: func(tr *tracer, parent int, layer map[string]float64) {
		holdFixture(size, tr, parent, layer)
		ladderFixture(fixtureReps(size), 1, 3, tr, parent, layer)
	}}
	for _, id := range ids {
		r, ok := experiments.ByID(id)
		if !ok {
			panic("vbench: experiment " + id + " is not registered")
		}
		g := paperGroup(id)
		pl.ops = append(pl.ops, op{
			name:    id,
			timeKey: "experiments." + g + ".wall_s",
			run: func(*tracer, int) opResult {
				text, events := reportText(r, seed, paperScale)
				return opResult{
					digest:    sha(text),
					work:      events,
					simEvents: events,
					counts:    map[string]float64{"experiments." + g + ".events": float64(events)},
				}
			},
		})
	}
	return pl
}

// reportText runs one experiment exactly as cmd/experiments does for a
// single replicate (harness trial: Stats attached, not verbose) and returns
// its report text and engine events.
func reportText(r experiments.Runner, seed int64, scale float64) (string, uint64) {
	stats := &experiments.Stats{}
	rep := r.Run(experiments.Options{Seed: seed, Scale: scale, Stats: stats})
	return rep.String(), stats.EventsFired()
}

// --- cloud, cloud-faults ---

// cloudConfig is the macro tier's trace: 1024 hosts and ~231k arrivals over
// 96 h at full size, a 64-host 3 h region for smoke.
func cloudConfig(size string) cloudgen.Config {
	cfg := cloudgen.DefaultConfig()
	if size == "smoke" {
		cfg.Horizon = 3 * cloudgen.Hour
		cfg.BaseRate = 600
		for i := range cfg.Hosts {
			cfg.Hosts[i].Count /= 16
		}
		return cfg
	}
	cfg.Horizon = 96 * cloudgen.Hour
	return cfg
}

// macroFaults is faulttol's scale-aware schedule: MTBFs chosen so the run
// sees ~48 crashes, ~96 brownouts and ~144 stalls whatever the fleet size and
// horizon.
func macroFaults(hosts int, horizon sim.Duration) faults.Config {
	mtbf := func(target float64) sim.Duration {
		return sim.Duration(float64(hosts) * float64(horizon) / target)
	}
	return faults.Config{CrashMTBF: mtbf(48), BrownoutMTBF: mtbf(96), StallMTBF: mtbf(144), MigFailProb: 0.1}
}

// macroEpoch is the macro tier's integration step.
const macroEpoch = 60 * sim.Second

func buildCloud(seed int64, size string, withFaults bool, tr *tracer, parent int) *plan {
	pl := &plan{gen: map[string]float64{}}
	s := tr.begin("cloudgen.Generate", parent)
	t0 := time.Now()
	trace := cloudgen.Generate(seed, cloudConfig(size))
	pl.gen["cloudgen.generate_s"] = time.Since(t0).Seconds()
	tr.end(s, map[string]float64{"vms": float64(len(trace.VMs)), "hosts": float64(len(trace.Hosts))})

	var sched *faults.Schedule
	if withFaults {
		s := tr.begin("faults.Generate", parent)
		t0 := time.Now()
		sv := faults.Generate(seed, len(trace.Hosts), trace.Horizon, macroFaults(len(trace.Hosts), trace.Horizon))
		pl.gen["faults.generate_s"] = time.Since(t0).Seconds()
		tr.end(s, map[string]float64{"events": float64(len(sv.Events))})
		sched = &sv
	} else {
		pl.fixtures = func(tr *tracer, parent int, layer map[string]float64) {
			indexFixture(trace, tr, parent, layer)
		}
	}
	for _, pol := range []fleet.Policy{fleet.FirstFit{}, fleet.LeastLoaded{}, fleet.StealAware{}} {
		pl.ops = append(pl.ops, op{
			name:    pol.Name(),
			timeKey: "fleet.macro." + pol.Name() + ".run_s",
			run:     func(*tracer, int) opResult { return runMacro(trace, pol, sched) },
		})
	}
	return pl
}

// runMacro runs one macro cell: two integration shards, and with a fault
// schedule, recovery plus a 60 s telemetry recorder.
func runMacro(trace cloudgen.Trace, pol fleet.Policy, sched *faults.Schedule) opResult {
	var eng *sim.Engine
	cfg := fleet.MacroConfig{
		Trace:   trace,
		Policy:  pol,
		Epoch:   macroEpoch,
		Shards:  2,
		Observe: func(e *sim.Engine) { eng = e },
	}
	if sched != nil {
		cfg.Faults = sched
		cfg.Recovery = faults.RecoveryConfig{Enabled: true}
		cfg.Telemetry = &telemetry.Config{Interval: 60 * sim.Second}
	}
	r := fleet.RunMacro(cfg)
	epochs := (trace.Horizon + macroEpoch - 1) / macroEpoch
	counts := map[string]float64{
		"fleet.macro.work_units":    float64(r.Events),
		"fleet.macro.host_epochs":   float64(r.Hosts) * float64(epochs),
		"fleet.macro.placed":        float64(r.Placed),
		"fleet.macro.rejected":      float64(r.Rejected),
		"fleet.macro.restarts":      float64(r.Restarts),
		"fleet.macro.evacuations":   float64(r.Evacuations),
		"fleet.macro.evac_failures": float64(r.EvacFailures),
		"fleet.macro.lost":          float64(r.Lost),
	}
	addTelemetry(counts, r.Telemetry)
	return opResult{digest: fleet.SnapshotDigest(r.Snapshot), work: r.Events, simEvents: eng.Fired(), counts: counts}
}

func addTelemetry(counts map[string]float64, rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	for _, s := range rec.Series(true) {
		counts["telemetry.points"] += float64(s.Count())
	}
	counts["telemetry.bytes"] += float64(rec.Bytes())
}

// --- fleet-observed ---

// microSize is the micro fleet's scale: hosts x arrivals over window, run to
// horizon.
type microSize struct {
	hosts, arrivals int
	window, horizon sim.Duration
}

var microSizes = map[string]microSize{
	"full":  {hosts: 16, arrivals: 256, window: 8 * sim.Second, horizon: 12 * sim.Second},
	"smoke": {hosts: 4, arrivals: 16, window: 1500 * sim.Millisecond, horizon: 2 * sim.Second},
}

// microMix is the fleet experiment's four VM types with a quarter of its
// lifetimes. Four times the arrivals at a quarter of the lifetime keep the
// fleet's load and halve how much the simulated work depends on the seed
// (the coefficient of variation of engine events over seeds drops from ~13%
// to ~6% on 16 hosts), so wall time across seeds measures the simulator more
// than the draw.
var microMix = []fleet.TypeMix{
	{Type: fleet.VMType{Name: "websvc", VCPUs: 2, Service: true, ServiceMean: 400 * sim.Microsecond},
		Weight: 4, MeanLifetime: sim.Second},
	{Type: fleet.VMType{Name: "apisvc", VCPUs: 4, Service: true, ServiceMean: sim.Millisecond},
		Weight: 2, MeanLifetime: 1250 * sim.Millisecond},
	{Type: fleet.VMType{Name: "batch2", VCPUs: 2, BatchWork: 1500 * sim.Microsecond},
		Weight: 3, MeanLifetime: 750 * sim.Millisecond},
	{Type: fleet.VMType{Name: "batch8", VCPUs: 8, BatchWork: 2500 * sim.Microsecond},
		Weight: 1, MeanLifetime: sim.Second},
}

// microFaults targets a handful of each fault kind per cell. Crash downtime is
// ~1 s because the default 10 min would outlast the horizon: no VM would ever
// restart.
func microFaults(hosts int, horizon sim.Duration) faults.Config {
	mtbf := func(target float64) sim.Duration {
		return sim.Duration(float64(hosts) * float64(horizon) / target)
	}
	return faults.Config{
		CrashMTBF: mtbf(4), CrashDowntime: sim.Second,
		BrownoutMTBF: mtbf(6), BrownoutMean: 2 * sim.Second,
		StallMTBF: mtbf(8), StallMean: 200 * sim.Millisecond,
		MigFailProb: 0.1,
	}
}

func buildFleet(seed int64, size string, tr *tracer, parent int) *plan {
	sz := microSizes[size]
	pl := &plan{fixtures: func(tr *tracer, parent int, layer map[string]float64) {
		holdFixture(size, tr, parent, layer)
		ring := ladderFixture(fixtureReps(size), 4, 4, tr, parent, layer)
		latprofFixture(ring, tr, parent, layer)
	}}
	s := tr.begin("fleet.GenerateArrivals", parent)
	arrivals := fleet.GenerateArrivals(seed, sz.arrivals, sz.window, microMix)
	tr.end(s, map[string]float64{"vms": float64(len(arrivals))})
	s = tr.begin("faults.Generate", parent)
	sched := faults.Generate(seed, sz.hosts, sz.horizon, microFaults(sz.hosts, sz.horizon))
	tr.end(s, map[string]float64{"events": float64(len(sched.Events))})

	hc := host.DefaultConfig()
	hc.Sockets, hc.CoresPerSocket, hc.ThreadsPerCore = 1, 4, 2
	for _, vs := range []bool{false, true} {
		guest := "cfs"
		if vs {
			guest = "vsched"
		}
		cfg := fleet.Config{
			Seed:           1, // the engine's own stream; inputs vary with -seed
			Hosts:          sz.hosts,
			HostConfig:     hc,
			Overcommit:     2.0,
			Policy:         fleet.StealAware{},
			VSched:         vs,
			Arrivals:       arrivals,
			Horizon:        sz.horizon,
			TelemetryEvery: 50 * sim.Millisecond,
			Migration: fleet.MigrationConfig{
				Every: 500 * sim.Millisecond, MinSteal: 0.12, Margin: 0.04,
				Downtime: 20 * sim.Millisecond, Cooldown: sim.Second,
			},
			Faults: &sched,
			Recovery: faults.RecoveryConfig{
				Enabled: true, MaxRetries: 5, BaseBackoff: 50 * sim.Millisecond, MaxBackoff: 400 * sim.Millisecond,
			},
		}
		for _, observed := range []bool{false, true} {
			mode, twin := "bare", ""
			if observed {
				mode, twin = "observed", guest+".bare"
			}
			name := guest + "." + mode
			pl.ops = append(pl.ops, op{
				name:    name,
				timeKey: "fleet.micro." + name + ".run_s",
				twin:    twin,
				run:     func(tr *tracer, parent int) opResult { return runMicro(cfg, observed, tr, parent) },
			})
		}
	}
	return pl
}

// runMicro runs one micro fleet cell. An observed cell attaches a vtrace
// ring, per-VM latency attribution and a telemetry recorder; observation is
// inert, so its simulated result must equal its bare twin's.
func runMicro(cfg fleet.Config, observed bool, tr *tracer, parent int) opResult {
	if observed {
		cfg.Tracer = vtrace.New(0)
		cfg.Attribution = true
		cfg.Telemetry = &telemetry.Config{}
	}
	s := tr.begin("fleet.New", parent)
	f := fleet.New(cfg)
	tr.end(s, nil)
	s = tr.begin("Fleet.Run", parent)
	r := f.Run()
	tr.end(s, map[string]float64{"events": float64(r.Events)})

	counts := map[string]float64{}
	if observed {
		counts["vtrace.events"] = float64(cfg.Tracer.Total())
		counts["vtrace.dropped"] = float64(cfg.Tracer.Dropped())
		addTelemetry(counts, r.Telemetry)
	} else {
		counts["fleet.micro.migrations"] = float64(r.Migrations)
		counts["fleet.micro.restarts"] = float64(r.Restarts)
		counts["fleet.micro.evacuations"] = float64(r.Evacuations)
		counts["fleet.micro.lost"] = float64(r.Lost)
	}
	return opResult{digest: microDigest(r), work: r.Events, simEvents: r.Events, counts: counts}
}

// microDigest hashes the simulated outcome of a micro cell. Engine event
// counts are left out: an attached recorder adds its own sampling events
// without changing the simulation.
func microDigest(r *fleet.Result) string {
	return sha(fmt.Sprintf("placed=%d departed=%d ops=%d p50=%d p95=%d steal=%d migrations=%d restarts=%d lost=%d",
		r.Placed, r.Departed, r.Ops, r.E2E.P50(), r.E2E.P95(), r.Steal, r.Migrations, r.Restarts, r.Lost))
}
