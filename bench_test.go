package vsched_test

// Ablation benchmarks for the design decisions called out in DESIGN.md §4,
// plus the whole registry through the harness. Each reports the quantity the
// design decision is about as a custom metric. The per-experiment wall time
// and per-layer costs are vbench's job (bench/, see BENCHMARK.json).
//
// Run everything with:
//
//	go test -run '^$' -bench . -benchmem
//
// Full-length reproductions: go run ./cmd/experiments -run all

import (
	"runtime"
	"testing"

	"vsched"
)

// contendedRig builds a 16-vCPU VM with 50% fair-share contention and
// asymmetric per-thread latency, the common substrate for the ablations.
func contendedRig(tb testing.TB, feats vsched.Features) (*vsched.Cluster, *vsched.VM, *vsched.VSched) {
	cl := mustCluster(tb, vsched.ClusterConfig{Seed: 13, CoresPerSocket: 16})
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = i
	}
	vm := mustVM(tb, cl, "vm", ids)
	for i := 0; i < 16; i++ {
		mustStressor(tb, cl, i)
		lat := 6 * vsched.Millisecond
		if i >= 8 {
			lat = 3 * vsched.Millisecond
		}
		mustLatency(tb, cl, i, lat)
	}
	var sched *vsched.VSched
	if feats != (vsched.Features{}) {
		sched = cl.EnableVSched(vm, feats)
	}
	return cl, vm, sched
}

// BenchmarkAblationProbeCost measures what the probers themselves cost a
// dedicated VM (design decision 3: probers are real tasks, so overhead is
// emergent, not assumed).
func BenchmarkAblationProbeCost(b *testing.B) {
	run := func(enable bool) uint64 {
		cl := mustCluster(b, vsched.ClusterConfig{Seed: 9, CoresPerSocket: 8})
		vm := mustVM(b, cl, "vm", []int{0, 1, 2, 3, 4, 5, 6, 7})
		var sched *vsched.VSched
		if enable {
			sched = cl.EnableVSched(vm, vsched.AllFeatures())
		}
		inst := mustWorkload(b, cl, vm, sched, "sysbench", 8)
		inst.Start()
		cl.RunFor(2 * vsched.Second)
		before := inst.Ops()
		cl.RunFor(5 * vsched.Second)
		return inst.Ops() - before
	}
	var overhead float64
	for i := 0; i < b.N; i++ {
		off := run(false)
		on := run(true)
		overhead = 100 * (1 - float64(on)/float64(off))
	}
	b.ReportMetric(overhead, "probe-overhead-%")
}

// BenchmarkAblationEMAvsRaw compares the stability of the published
// capacity under the paper's EMA horizon against nearly-raw samples (design
// decision 4): the EMA is what keeps the scheduler from chasing every
// contention burst.
func BenchmarkAblationEMAvsRaw(b *testing.B) {
	run := func(halfPeriods float64) float64 {
		cl := mustCluster(b, vsched.ClusterConfig{Seed: 17, CoresPerSocket: 2})
		vm := mustVM(b, cl, "vm", []int{0, 1})
		// Bursts long relative to the 100ms sampling window: individual
		// capacity samples swing between ~0 and full.
		mustPattern(b, cl, 0, 170*vsched.Millisecond, 390*vsched.Millisecond, 0)
		p := vsched.DefaultParams()
		p.EMAHalfPeriods = halfPeriods
		if _, err := cl.EnableVSchedWithParams(vm, vsched.Features{Vcap: true, Vact: true}, p); err != nil {
			b.Fatal(err)
		}
		cl.RunFor(3 * vsched.Second)
		// Sample the published capacity each second and return its variance.
		var vals []float64
		for i := 0; i < 20; i++ {
			cl.RunFor(1 * vsched.Second)
			vals = append(vals, float64(vm.VCPU(0).Capacity()))
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var m2 float64
		for _, v := range vals {
			m2 += (v - mean) * (v - mean)
		}
		return m2 / float64(len(vals))
	}
	var smooth, raw float64
	for i := 0; i < b.N; i++ {
		smooth = run(2) // the paper's horizon: 50% decay per 2 periods
		raw = run(0.05) // nearly raw samples
	}
	b.ReportMetric(smooth, "cap-variance-ema")
	b.ReportMetric(raw, "cap-variance-raw")
}

// BenchmarkAblationBVSFirstFit compares the paper's first-fit bvs search
// against an exhaustive best-fit scan (design decision 5): best-fit buys
// little latency and costs more search.
func BenchmarkAblationBVSFirstFit(b *testing.B) {
	run := func(bestFit bool) float64 {
		feats := vsched.Features{Vcap: true, Vact: true, Vtop: true, BVS: true}
		cl, vm, sched := contendedRig(b, feats)
		sched.SetBVSBestFit(bestFit)
		srv := mustWorkload(b, cl, vm, sched, "masstree", 0).(*vsched.Server)
		srv.Start()
		cl.RunFor(6 * vsched.Second)
		srv.ResetStats()
		cl.RunFor(6 * vsched.Second)
		return float64(srv.E2E().P95()) / 1e6
	}
	var first, best float64
	for i := 0; i < b.N; i++ {
		first = run(false)
		best = run(true)
	}
	b.ReportMetric(first, "p95ms-firstfit")
	b.ReportMetric(best, "p95ms-bestfit")
}

// BenchmarkAblationBVSLatencyGate compares bvs's min-anchored low-latency
// cutoff against the obvious median anchor (design decision 8): on a VM
// where only a minority of vCPUs is genuinely low-latency (hpvm's dedicated
// socket), the median blesses the middle category and bvs parks latency
// tasks behind multi-millisecond inactive bursts.
func BenchmarkAblationBVSLatencyGate(b *testing.B) {
	run := func(median bool) float64 {
		cl := mustCluster(b, vsched.ClusterConfig{Seed: 31, Sockets: 2, CoresPerSocket: 8})
		ids := make([]int, 16)
		for i := range ids {
			ids[i] = i
		}
		vm := mustVM(b, cl, "vm", ids)
		// Only a minority is genuinely low-latency, like hpvm's dedicated
		// socket: vCPUs 0-3 dedicated; 4-9 contended with 3ms bursts;
		// 10-15 with 9ms. The median latency is the 3ms class.
		for i := 4; i < 16; i++ {
			lat := 3 * vsched.Millisecond
			if i >= 10 {
				lat = 9 * vsched.Millisecond
			}
			mustLatency(b, cl, i, lat)
			mustStressor(b, cl, i)
		}
		feats := vsched.Features{Vcap: true, Vact: true, Vtop: true, BVS: true}
		sched := cl.EnableVSched(vm, feats)
		sched.SetBVSMedianGate(median)
		srv := mustWorkload(b, cl, vm, sched, "masstree", 0).(*vsched.Server)
		srv.Start()
		cl.RunFor(6 * vsched.Second)
		srv.ResetStats()
		cl.RunFor(6 * vsched.Second)
		return float64(srv.E2E().P95()) / 1e6
	}
	var minAnchored, median float64
	for i := 0; i < b.N; i++ {
		minAnchored = run(false)
		median = run(true)
	}
	b.ReportMetric(minAnchored, "p95ms-minanchor")
	b.ReportMetric(median, "p95ms-median")
}

// BenchmarkAblationHeartbeatGranularity measures how vact's probed vCPU
// latency tracks ground truth as a function of the tick period that drives
// the heartbeat (design decision 2: probing accuracy is emergent from tick
// instrumentation).
func BenchmarkAblationHeartbeatGranularity(b *testing.B) {
	run := func() float64 {
		cl := mustCluster(b, vsched.ClusterConfig{Seed: 29, CoresPerSocket: 2})
		vm := mustVM(b, cl, "vm", []int{0, 1})
		// Ground truth: 4ms inactive bursts on vCPU1.
		mustPattern(b, cl, 1, 4*vsched.Millisecond, 6*vsched.Millisecond, 0)
		cl.EnableVSched(vm, vsched.Features{Vcap: true, Vact: true})
		cl.RunFor(10 * vsched.Second)
		return vm.VCPU(1).Latency().Milliseconds()
	}
	var measured float64
	for i := 0; i < b.N; i++ {
		measured = run()
	}
	b.ReportMetric(measured, "probed-latency-ms(truth=4)")
}

// benchRegistry runs the complete experiment registry through the harness
// at 5% scale with the given worker-pool size.
func benchRegistry(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := vsched.RunExperiments(vsched.HarnessConfig{
			BaseSeed: 42,
			Scale:    0.05,
			Workers:  workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed() > 0 {
			b.Fatalf("%d trials failed", res.Failed())
		}
		b.ReportMetric(float64(res.EventsFired())/res.WallTime.Seconds(), "events/sec")
	}
}

// BenchmarkRegistrySerial runs the whole registry on one harness worker:
// one trial at a time, exactly the trial order and seeds of the classic
// serial loop. Each experiment's cells still fan out over GOMAXPROCS; -cpu 1
// gives the fully serial reference path.
func BenchmarkRegistrySerial(b *testing.B) { benchRegistry(b, 1) }

// BenchmarkRegistryParallel fans the registry out over the worker pool. The
// output is byte-identical to the serial run (see internal/harness's
// determinism suite); the wall-clock ratio of these two benchmarks is what
// running trials side by side adds on top of the cells' own parallelism.
func BenchmarkRegistryParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	benchRegistry(b, workers)
}
