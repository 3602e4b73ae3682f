// Command vschedsim runs a single custom scenario: a VM on a configurable
// host with optional co-tenant contention, a catalogued workload, and any
// vSched feature combination, reporting throughput/latency and scheduler
// counters.
//
// Examples:
//
//	vschedsim -workload nginx -vcpus 8 -share 0.5 -vsched
//	vschedsim -workload masstree -vcpus 16 -share 0.5 -latency 8ms -features vcap,vact,vtop,bvs
//	vschedsim -workload canneal -threads 4 -vcpus 16 -share 0.5 -features vcap,vact,ivh -duration 30s
//	vschedsim -workload nginx -vcpus 4 -share 0.5 -vsched -trace out.json   # open in Perfetto
//	vschedsim -workload nginx -vcpus 4 -vsched -metrics                     # registry readings
//	vschedsim -workload nginx -vcpus 4 -vsched -serve 127.0.0.1:9137        # live /metrics + progress stream
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vsched"
	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/host"
	"vsched/internal/latprof"
	"vsched/internal/metrics"
	"vsched/internal/obshttp"
	"vsched/internal/profiling"
	"vsched/internal/progress"
	"vsched/internal/telemetry"
	"vsched/internal/vtrace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected: args without argv[0], and the
// two output streams. Scenario results go to stdout; diagnostics, the trace
// summary, and the wall-time line go to stderr, so stdout is a deterministic
// function of the flags and seed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vschedsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "nginx", "catalogued benchmark (see -list)")
		cloudVM      = fs.Bool("cloudvm", false, "draw the VM shape (vCPU count, tenant class) from the cloudgen cloud-trace distributions with -seed; overrides -vcpus")
		list         = fs.Bool("list", false, "list workloads and exit")
		vcpus        = fs.Int("vcpus", 8, "vCPU count (pinned 1:1 on threads)")
		threads      = fs.Int("threads", 0, "workload threads (0 = default; hackbench takes only 0)")
		sockets      = fs.Int("sockets", 1, "host sockets")
		cores        = fs.Int("cores", 0, "cores per socket (0 = vcpus)")
		smt          = fs.Bool("smt", false, "enable SMT/turbo speed effects")
		share        = fs.Float64("share", 1.0, "fair share each vCPU gets of its core (1.0 = dedicated)")
		latency      = fs.Duration("latency", 0, "target vCPU latency via host granularities (0 = default)")
		vschedOn     = fs.Bool("vsched", false, "enable full vSched")
		featuresFlag = fs.String("features", "", "comma-separated subset: vcap,vact,vtop,bvs,ivh,rwc")
		policy       = fs.String("policy", "cfs", "guest scheduling policy: cfs or eevdf")
		duration     = fs.Duration("duration", 20*time.Second, "virtual measurement time")
		warmup       = fs.Duration("warmup", 5*time.Second, "virtual warmup time")
		seed         = fs.Int64("seed", 1, "simulation seed")
		watch        = fs.Bool("watch", false, "print a per-second top-style vCPU table during the run")
		timeline     = fs.Bool("timeline", false, "print KernelShark-style per-vCPU activity strips of the final 80ms, read from the trace ring")
		tracePath    = fs.String("trace", "", "write a Chrome/Perfetto trace of the whole run to this file")
		metricsOut   = fs.Bool("metrics", false, "print every reading of the VM metrics registry at the end")
		attrib       = fs.Bool("attrib", false, "print a per-cause latency attribution of the measurement window (adds an attribution track to -trace)")
		telem        = fs.Bool("telemetry", false, "sample a flight recorder over the run: sparkline summary at the end, counter tracks in -trace")
		stallDur     = fs.Duration("stall", 0, "inject a transient host stall of this length (freezes every vCPU; shows up as steal and in -trace)")
		stallAt      = fs.Duration("stallat", 0, "virtual-time offset of the injected stall (0 = midway through the measurement window)")
		cpuProf      = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf      = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		serveAddr    = fs.String("serve", "", "serve this scenario's live observability on this address while it runs: Prometheus /metrics, /runs/vschedsim/events, pprof (e.g. 127.0.0.1:9137, or :0 for an ephemeral port)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "profiling:", err)
		}
	}()

	if *list {
		fmt.Fprintln(stdout, "workloads:", strings.Join(vsched.WorkloadNames(), ", "))
		return 0
	}

	if *cloudVM {
		// One draw from the same heavy-tailed size / bimodal class model the
		// fleetscale experiment runs at 100k-VM scale: a quick way to ask
		// "what does a typical (or tail) cloud VM look like on this config?".
		gcfg := cloudgen.DefaultConfig()
		gcfg.MaxVMs = 1
		tr := cloudgen.Generate(*seed, gcfg)
		v := tr.VMs[0]
		*vcpus = v.VCPUs
		fmt.Fprintf(stderr, "cloudvm draw (seed %d): %s, %d vCPUs, per-vCPU demand %.2f\n",
			*seed, v.Class, v.VCPUs, v.Demand)
	}
	if *vcpus < 1 {
		fmt.Fprintf(stderr, "bad -vcpus %d (want at least 1)\n", *vcpus)
		return 1
	}
	// The stressor weight below is DefaultWeight·(1-share)/share: a share of
	// 0 (or NaN) has no finite weight.
	if !(*share > 0 && *share <= 1) {
		fmt.Fprintf(stderr, "bad -share %v (want a fair share in (0, 1])\n", *share)
		return 1
	}
	// The reported rates divide by the measurement window.
	if *duration <= 0 {
		fmt.Fprintf(stderr, "bad -duration %v (want > 0)\n", *duration)
		return 1
	}
	if *warmup < 0 {
		fmt.Fprintf(stderr, "bad -warmup %v (want >= 0)\n", *warmup)
		return 1
	}
	// A negative latency, stall or stall offset would silently run as the
	// default, no stall or a midway stall.
	if *latency < 0 {
		fmt.Fprintf(stderr, "bad -latency %v (want >= 0; 0 = default)\n", *latency)
		return 1
	}
	if *stallDur < 0 {
		fmt.Fprintf(stderr, "bad -stall %v (want >= 0; 0 = none)\n", *stallDur)
		return 1
	}
	if *stallAt < 0 {
		fmt.Fprintf(stderr, "bad -stallat %v (want >= 0; 0 = midway)\n", *stallAt)
		return 1
	}
	// An offset the run never reaches, or with no stall to place, would
	// arm nothing and exit 0.
	if end := *warmup + *duration; *stallAt >= end {
		fmt.Fprintf(stderr, "bad -stallat %v (want < -warmup + -duration = %v)\n", *stallAt, end)
		return 1
	}
	if *stallAt > 0 && *stallDur == 0 {
		fmt.Fprintf(stderr, "bad -stallat %v (want it with a -stall > 0)\n", *stallAt)
		return 1
	}

	if *sockets < 0 {
		fmt.Fprintf(stderr, "bad -sockets %d (want >= 0)\n", *sockets)
		return 1
	}
	if *cores < 0 {
		fmt.Fprintf(stderr, "bad -cores %d (want >= 0; 0 = vcpus)\n", *cores)
		return 1
	}

	nCores := *cores
	if nCores == 0 {
		nCores = *vcpus
	}
	cl, err := vsched.NewCluster(vsched.ClusterConfig{
		Seed: *seed, Sockets: *sockets, CoresPerSocket: nCores, SMT: *smt,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if n := cl.Host().NumThreads(); *vcpus > n {
		fmt.Fprintf(stderr, "bad -vcpus %d (the host has %d hardware threads)\n", *vcpus, n)
		return 1
	}
	ids := make([]int, *vcpus)
	for i := range ids {
		ids[i] = i
	}
	gp := vsched.DefaultGuestParams()
	switch strings.ToLower(*policy) {
	case "cfs":
	case "eevdf":
		gp.Policy = vsched.PolicyEEVDF
	default:
		fmt.Fprintf(stderr, "unknown -policy %q (want cfs or eevdf)\n", *policy)
		return 1
	}
	vm, err := cl.NewVMWithParams("vm", ids, gp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Tracing taps every layer: the host observer sees entity state changes,
	// and the VM tracer carries guest context switches plus vSched decisions.
	// -timeline draws its strips from the same ring. Only a -trace ring feeds
	// the self-census, so -timeline adds no telemetry series. The host is
	// tapped once: the tap feeds the ring and, from the measurement window
	// on, the -attrib profiler.
	var ring, tracer *vtrace.Tracer
	var prof *latprof.Profiler
	if *tracePath != "" || *timeline {
		ring = vtrace.New(0)
		vm.SetTracer(ring)
	}
	if ring != nil || *attrib {
		vtrace.AttachHost(vtrace.Tee(ring, func(ev vtrace.Event) {
			if prof != nil {
				prof.Observe(ev)
			}
		}), cl.Host())
	}
	if *tracePath != "" {
		tracer = ring
	}

	// Host contention per the requested share and latency.
	if *share < 1.0 {
		w := int64(float64(vsched.DefaultWeight) * (1 - *share) / *share)
		for i := 0; i < *vcpus; i++ {
			if _, err := cl.AddStressor(i, w); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	if *latency > 0 {
		for i := 0; i < *vcpus; i++ {
			if err := cl.SetVCPULatency(i, vsched.Duration(latency.Nanoseconds())); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}

	var sched *vsched.VSched
	feats := vsched.Features{}
	if *vschedOn {
		feats = vsched.AllFeatures()
	}
	for _, f := range strings.Split(*featuresFlag, ",") {
		switch strings.TrimSpace(strings.ToLower(f)) {
		case "":
		case "vcap":
			feats.Vcap = true
		case "vact":
			feats.Vact = true
		case "vtop":
			feats.Vtop = true
		case "bvs":
			feats.BVS = true
		case "ivh":
			feats.IVH = true
		case "rwc":
			feats.RWC = true
		default:
			fmt.Fprintf(stderr, "unknown feature %q\n", f)
			return 1
		}
	}
	if feats != (vsched.Features{}) {
		sched = cl.EnableVSched(vm, feats)
	}

	// The flight recorder samples the VM registry plus the engine's own
	// event-queue census on the sim clock; wall-clock throughput rides along
	// as volatile series that stay out of the deterministic summary.
	var rec *telemetry.Recorder
	if *telem {
		rec = telemetry.New(cl.Engine(), telemetry.Config{})
		rec.AddSource("", telemetry.RegistrySource(vm.Metrics()))
		rec.AddSource("", &telemetry.SelfSource{Eng: cl.Engine(), Tracer: tracer})
		rec.AddVolatileSource("", &telemetry.WallSource{Eng: cl.Engine()})
		rec.Start()
	}

	inst, err := cl.Workload(vm, sched, *workloadName, *threads)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	inst.Start()

	warm := vsched.Duration(warmup.Nanoseconds())
	window := vsched.Duration(duration.Nanoseconds())

	// The live ops plane: when -serve is set, the run loop below advances the
	// engine in one-virtual-second chunks and publishes a progress event plus
	// a metrics mirror at each chunk boundary. That boundary is an existing
	// safepoint — Run(a) then Run(b) fires exactly the events Run(a+b) would,
	// in the same order — so observation schedules nothing on the engine and
	// the whole of stdout (including the engine's self-census telemetry) is
	// byte-identical with and without -serve. Census gauges live in their own
	// registry for the same reason, and the bound address goes to stderr.
	var obsPublish func()
	obsFinish := func() {}
	if *serveAddr != "" {
		srv, err := obshttp.Serve(*serveAddr, "vschedsim", stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		bus := srv.Bus()
		label := *workloadName
		eng := cl.Engine()
		total := warm + window
		obsReg := metrics.NewRegistry()
		self := &telemetry.SelfSource{Eng: eng, Tracer: tracer}
		mirror := func() {
			srv.Mirror().Publish(func(emit func(string, float64)) {
				vm.Metrics().VisitNumeric(emit)
				rec.UpdateCensus(obsReg)
				obsReg.VisitNumeric(emit)
				self.Collect(eng.Now(), emit)
			})
		}
		bus.Publish(progress.Event{Kind: progress.KindRunStart, Label: label, Total: int64(total)})
		mirror()
		var epoch int64
		obsPublish = func() {
			epoch++
			bus.Publish(progress.Event{
				Kind: progress.KindEpoch, Label: label,
				At: int64(eng.Now()), Epoch: epoch,
				Done: int64(inst.Ops()), Total: int64(total),
			})
			mirror()
		}
		obsFinish = func() {
			bus.Publish(progress.Event{
				Kind: progress.KindRunDone, Label: label,
				At: int64(eng.Now()), Epoch: epoch, Done: int64(inst.Ops()), Total: int64(total),
			})
			mirror()
			srv.Stop()
		}
	}
	defer obsFinish()
	// advance is the run loop: whole-stretch when unobserved, chunked to
	// per-second safepoints when -serve publishes or -watch prints there.
	// Identical either way.
	advance := func(d vsched.Duration) {
		if obsPublish == nil && !*watch {
			cl.RunFor(d)
			return
		}
		for d > 0 {
			step := vsched.Duration(vsched.Second)
			if step > d {
				step = d
			}
			cl.RunFor(step)
			d -= step
			if obsPublish != nil {
				obsPublish()
			}
			if *watch {
				watchTable(stdout, cl, vm, sched)
			}
		}
	}

	// The single-host cousin of the fleet fault plane (internal/faults): a
	// transient stall blocks every vCPU entity at a chosen instant and wakes
	// them after, so the guest sees a hard steal burst — handy for watching
	// how the probers and bvs re-converge after degraded-signal windows.
	if *stallDur > 0 {
		at := vsched.Duration(stallAt.Nanoseconds())
		if at <= 0 {
			at = warm + window/2
		}
		d := vsched.Duration(stallDur.Nanoseconds())
		eng := cl.Engine()
		eng.After(at, func() {
			if tracer != nil {
				tracer.Emit(eng.Now(), vtrace.KindHostFault, "host", int64(faults.Stall), int64(d), 0)
			}
			for i := 0; i < vm.NumVCPUs(); i++ {
				vm.VCPU(i).Entity().Block()
			}
			eng.After(d, func() {
				for i := 0; i < vm.NumVCPUs(); i++ {
					vm.VCPU(i).Entity().Wake()
				}
				if tracer != nil {
					tracer.Emit(eng.Now(), vtrace.KindHostRecover, "host", int64(faults.Stall), 0, 0)
				}
			})
		})
		fmt.Fprintf(stderr, "stall armed: %v at t=%v\n", *stallDur, time.Duration(at))
	}
	advance(warm)

	// Latency attribution taps the event stream for the measurement window
	// only, so warmup does not dilute the breakdown. The host tap starts
	// feeding the profiler and the VM tracer becomes a tee that keeps
	// feeding the ring, so the recorded trace and strips are unchanged.
	if *attrib {
		prof = latprof.New(latprof.Config{VM: "vm", NominalSpeed: cl.Host().Config().BaseSpeed})
		vm.SetTracer(vtrace.Tee(ring, prof.Observe))
	}
	var srv *vsched.Server
	if s, ok := inst.(*vsched.Server); ok {
		srv = s
		srv.ResetStats()
	}
	opsBefore := inst.Ops()
	start := time.Now()
	advance(window)
	wall := time.Since(start)

	ops := inst.Ops() - opsBefore
	fmt.Fprintf(stdout, "workload=%s vcpus=%d share=%.2f features=%+v\n", *workloadName, *vcpus, *share, feats)
	fmt.Fprintf(stdout, "ops=%d (%.1f/s virtual)\n", ops, float64(ops)/window.Seconds())
	if srv != nil {
		fmt.Fprintf(stdout, "latency p50=%.3fms p95=%.3fms p99=%.3fms (queue p95=%.3fms service p95=%.3fms)\n",
			float64(srv.E2E().P50())/1e6, float64(srv.E2E().P95())/1e6, float64(srv.E2E().P99())/1e6,
			float64(srv.Queue().P95())/1e6, float64(srv.Service().P95())/1e6)
	}
	st := vm.Stats()
	fmt.Fprintf(stdout, "sched: ctxsw=%d wakeups=%d migrations=%d ipis=%d (cross-socket %d)\n",
		st.ContextSwitches, st.Wakeups, st.Migrations, st.IPIs, st.CrossIPIs)
	fmt.Fprintf(stdout, "cycles=%.3g (cps=%.3g/s)\n", vm.TotalCycles(), vm.TotalCycles()/window.Seconds())
	if sched != nil {
		ivh := sched.IVHStats()
		calls, hits := sched.BVSStats()
		fmt.Fprintf(stdout, "vsched: ivh=%+v bvs=%d/%d vtop full=%v validate=%v\n",
			ivh, hits, calls, sched.Vtop().LastFullTime(), sched.Vtop().LastValidateTime())
		caps := make([]string, vm.NumVCPUs())
		for i := range caps {
			caps[i] = fmt.Sprintf("%d", vm.VCPU(i).Capacity())
		}
		fmt.Fprintf(stdout, "probed capacities: %s\n", strings.Join(caps, " "))
	}
	if *timeline {
		ents := make([]*host.Entity, vm.NumVCPUs())
		for i := range ents {
			ents[i] = vm.VCPU(i).Entity()
		}
		writeStrips(stdout, stderr, ring, ents, cl.Now(), 80*vsched.Millisecond)
	}
	if *metricsOut {
		fmt.Fprintln(stdout, "metrics:")
		writeMetrics(stdout, vm.Metrics())
	}
	if rec != nil {
		rec.Stop()
		// Deterministic series to stdout (a pure function of flags + seed);
		// wall-clock series to stderr with the other timing diagnostics.
		fmt.Fprint(stdout, rec.Snapshot(false).Summary())
		full := rec.Snapshot(true)
		var vol telemetry.Snapshot
		vol.IntervalNS, vol.Samples = full.IntervalNS, full.Samples
		for _, s := range full.Series {
			if s.Volatile {
				vol.Series = append(vol.Series, s)
			}
		}
		if len(vol.Series) > 0 {
			fmt.Fprint(stderr, vol.Summary())
		}
	}
	var extraTracks []vtrace.SpanTrack
	if prof != nil {
		p := prof.Finish(cl.Now())
		if err := p.CheckConservation(); err != nil {
			fmt.Fprintf(stderr, "attribution: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, p.String())
		extraTracks = append(extraTracks, p.ChromeTrack())
	}
	if tracer != nil {
		var counters []vtrace.CounterTrack
		if rec != nil {
			counters = rec.CounterTracks(true)
		}
		if err := writeTrace(*tracePath, tracer, extraTracks, counters); err != nil {
			fmt.Fprintf(stderr, "writing trace: %v\n", err)
			return 1
		}
		fmt.Fprint(stderr, tracer.Summary())
		fmt.Fprintf(stderr, "trace written to %s (load in https://ui.perfetto.dev)\n", *tracePath)
	}
	fmt.Fprintf(stderr, "(simulated %v in %v wall time)\n", duration, wall.Round(time.Millisecond))
	return 0
}

func writeTrace(path string, tr *vtrace.Tracer, extra []vtrace.SpanTrack, counters []vtrace.CounterTrack) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f, extra, counters); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics prints every numeric reading of reg as aligned "name value"
// lines, sorted by name. Values print in plain decimal, never with an
// exponent, so a counter prints as an integer.
func writeMetrics(w io.Writer, reg *metrics.Registry) {
	type reading struct {
		name string
		v    float64
	}
	var rs []reading
	width := 0
	reg.VisitNumeric(func(name string, v float64) {
		rs = append(rs, reading{name, v})
		width = max(width, len(name))
	})
	sort.Slice(rs, func(i, j int) bool { return rs[i].name < rs[j].name })
	for _, r := range rs {
		fmt.Fprintf(w, "%-*s  %s\n", width, r.name, strconv.FormatFloat(r.v, 'f', -1, 64))
	}
}

// watchTable prints a snapshot of every vCPU: probed capacity and latency
// next to the physical truth (host thread, entity state), plus guest queue
// depth — a "top" for the simulation. The run loop calls it at its
// per-second safepoints, so watching schedules nothing on the engine.
func watchTable(w io.Writer, cl *vsched.Cluster, vm *vsched.VM, sched *vsched.VSched) {
	fmt.Fprintf(w, "--- t=%v ---\n", cl.Now())
	fmt.Fprintf(w, "%-5s %-9s %-11s %-8s %-7s %-10s %s\n",
		"vcpu", "probedCap", "probedLat", "rqlen", "curr", "entState", "thread(skt/core/slot)")
	for i := 0; i < vm.NumVCPUs(); i++ {
		v := vm.VCPU(i)
		curr := "-"
		if c := v.Curr(); c != nil {
			curr = c.Name()
			if len(curr) > 7 {
				curr = curr[:7]
			}
		}
		th := v.Entity().Thread()
		fmt.Fprintf(w, "%-5d %-9d %-11v %-8d %-7s %-10v %d/%d/%d\n",
			i, v.Capacity(), v.Latency(), v.RunqueueLen(), curr,
			v.Entity().State(), th.Socket(), th.Core(), th.Slot())
	}
	if sched != nil {
		b := sched.Vtop().Belief()
		var stacks []string
		for _, g := range b.StackGroups() {
			stacks = append(stacks, fmt.Sprint(g))
		}
		if len(stacks) > 0 {
			fmt.Fprintln(w, "stacked groups:", strings.Join(stacks, " "))
		}
	}
}
