package workload

import (
	"slices"
	"testing"

	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
)

func testVM(t *testing.T, nvcpu int) (*sim.Engine, *guest.VM) {
	t.Helper()
	eng := sim.NewEngine(5)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, nvcpu, 1
	cfg.TurboFactor, cfg.BaseSpeed = 1.0, 1.0
	h := host.New(eng, cfg)
	var threads []*host.Thread
	for i := 0; i < nvcpu; i++ {
		threads = append(threads, h.Thread(i))
	}
	vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
	vm.Start()
	return eng, vm
}

func env(vm *guest.VM, threads int) Env {
	return Env{VM: vm, Threads: threads, Nominal: 1.0}
}

func TestServerOpenLoopLatency(t *testing.T) {
	eng, vm := testVM(t, 4)
	srv := NewServer(env(vm, 0), ServerConfig{
		Name: "svc", Workers: 4,
		ServiceMean:  200 * sim.Microsecond,
		Interarrival: 2 * sim.Millisecond,
		LatencyMark:  true,
	})
	srv.Start()
	eng.RunFor(2 * sim.Second)
	if srv.Ops() < 700 || srv.Ops() > 1300 {
		t.Fatalf("ops=%d want ~1000", srv.Ops())
	}
	// Dedicated vCPUs: e2e ~= service, queue tiny.
	if p := srv.E2E().P95(); p > int64(600*sim.Microsecond) {
		t.Fatalf("p95=%dns too high for a dedicated VM", p)
	}
	if q := srv.Queue().P95(); q > int64(300*sim.Microsecond) {
		t.Fatalf("queue p95=%dns too high", q)
	}
	if s := srv.Service().Mean(); s < float64(100*sim.Microsecond) || s > float64(400*sim.Microsecond) {
		t.Fatalf("service mean=%v", s)
	}
}

func TestServerLatencyGrowsWithVCPULatency(t *testing.T) {
	run := func(burst sim.Duration) int64 {
		eng, vm := testVM(t, 2)
		h := vm.Host()
		for i := 0; i < 2; i++ {
			// The paper's latency knob: a CFS co-tenant plus host scheduler
			// granularities tuned to the target vCPU latency.
			h.Thread(i).SetGranularities(burst, 2*burst)
			host.NewStressor(h, "tenant", h.Thread(i), host.DefaultWeight)
		}
		// One worker, arrivals far apart: every request is an isolated
		// wakeup whose latency is dominated by the vCPU's wait.
		srv := NewServer(env(vm, 0), ServerConfig{
			Name: "svc", Workers: 1,
			ServiceMean:  100 * sim.Microsecond,
			Interarrival: 50 * sim.Millisecond,
			LatencyMark:  true,
		})
		srv.Start()
		eng.RunFor(20 * sim.Second)
		return srv.E2E().P95()
	}
	small, large := run(2*sim.Millisecond), run(16*sim.Millisecond)
	if large < 3*small {
		t.Fatalf("tail latency must grow with vCPU latency: 2ms->%d 16ms->%d", small, large)
	}
}

func TestServerClosedLoopSaturates(t *testing.T) {
	eng, vm := testVM(t, 4)
	srv := NewNginx(env(vm, 0))
	srv.Start()
	eng.RunFor(2 * sim.Second)
	// 4 vCPUs / 300us service: ceiling ~13.3k req/s; expect >60% of it.
	if srv.Ops() < 16000 {
		t.Fatalf("closed-loop throughput too low: %d ops in 2s", srv.Ops())
	}
}

func TestServerResetStats(t *testing.T) {
	eng, vm := testVM(t, 2)
	srv := NewTailbench(env(vm, 0), "silo", 100*sim.Microsecond, false)
	srv.Start()
	eng.RunFor(1 * sim.Second)
	srv.ResetStats()
	if srv.Ops() != 0 || srv.E2E().Count() != 0 {
		t.Fatal("reset failed")
	}
	eng.RunFor(1 * sim.Second)
	if srv.Ops() == 0 {
		t.Fatal("server stopped after reset")
	}
}

func TestParallelBarrierKernel(t *testing.T) {
	eng, vm := testVM(t, 4)
	p := NewParallel(env(vm, 4), ParallelSpec{
		Name: "bar", IterWork: 1 * sim.Millisecond, Imbalance: 0.2,
		Sync: SyncBarrier, Iterations: 100,
	})
	p.Start()
	eng.RunFor(5 * sim.Second)
	if !p.Done() {
		t.Fatal("kernel did not finish")
	}
	if p.Ops() != 400 {
		t.Fatalf("ops=%d want 400", p.Ops())
	}
	// 100 iterations of ~1ms on 4 dedicated vCPUs: ~100-160ms.
	if p.FinishedAt > sim.Time(400*sim.Millisecond) {
		t.Fatalf("finished at %v, too slow", p.FinishedAt)
	}
}

func TestParallelLockKernel(t *testing.T) {
	eng, vm := testVM(t, 4)
	p := NewParallel(env(vm, 4), ParallelSpec{
		Name: "lk", IterWork: 1 * sim.Millisecond, Sync: SyncLock,
		CritFrac: 0.2, Iterations: 50,
	})
	p.Start()
	eng.RunFor(5 * sim.Second)
	if !p.Done() {
		t.Fatal("lock kernel did not finish")
	}
	if p.Ops() != 200 {
		t.Fatalf("ops=%d", p.Ops())
	}
}

func TestParallelSpinBarrierKernel(t *testing.T) {
	eng, vm := testVM(t, 4)
	p := NewParallel(env(vm, 4), ParallelSpec{
		Name: "spin", IterWork: 500 * sim.Microsecond, Imbalance: 0.3,
		Sync: SyncSpinBarrier, Iterations: 50,
	})
	p.Start()
	eng.RunFor(5 * sim.Second)
	if !p.Done() {
		t.Fatal("spin-barrier kernel did not finish")
	}
}

func TestParallelStop(t *testing.T) {
	eng, vm := testVM(t, 2)
	p := NewParallel(env(vm, 2), ParallelSpec{
		Name: "endless", IterWork: 1 * sim.Millisecond, Sync: SyncNone,
	})
	p.Start()
	eng.RunFor(100 * sim.Millisecond)
	if p.Ops() == 0 {
		t.Fatal("no progress")
	}
	p.Stop()
	eng.RunFor(10 * sim.Millisecond)
	if !p.Done() {
		t.Fatal("threads did not exit after Stop")
	}
}

func TestPipelineProcessesItems(t *testing.T) {
	eng, vm := testVM(t, 4)
	p := NewPipeline(env(vm, 2), PipelineSpec{
		Name: "pipe", ReadIO: 100 * sim.Microsecond, ReadCPU: 50 * sim.Microsecond,
		WorkCPU: 500 * sim.Microsecond, WriteCPU: 50 * sim.Microsecond,
	})
	p.Start()
	eng.RunFor(200 * sim.Millisecond)
	before := p.Ops()
	eng.RunFor(sim.Second)
	// Two workers at 500us an item bound the pipeline at 4000 items/s; the
	// reader and writer, each on a vCPU of its own, keep up with them.
	if n := p.Ops() - before; n < 3600 || n > 4000 {
		t.Fatalf("pipeline wrote %d items in 1s, want 3600..4000", n)
	}
	p.Stop()
	eng.RunFor(100 * sim.Millisecond)
	drained := p.Ops()
	eng.RunFor(100 * sim.Millisecond)
	if p.Ops() != drained {
		t.Fatal("stopped pipeline kept writing")
	}
}

func TestSysbenchThroughputScalesWithCapacity(t *testing.T) {
	run := func(duty bool) uint64 {
		eng, vm := testVM(t, 4)
		if duty {
			h := vm.Host()
			for i := 0; i < 4; i++ {
				host.NewPatternContender(h, "p", h.Thread(i), 5*sim.Millisecond, 5*sim.Millisecond, 0)
			}
		}
		s := NewSysbench(env(vm, 0), 4)
		s.Start()
		eng.RunFor(2 * sim.Second)
		return s.Ops()
	}
	full, half := run(false), run(true)
	ratio := float64(full) / float64(half)
	if ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("sysbench should track vCPU capacity: full=%d half=%d", full, half)
	}
}

func TestHackbenchCompletes(t *testing.T) {
	eng, vm := testVM(t, 4)
	hb := NewHackbench(env(vm, 0), 2, 2, 50)
	hb.Start()
	eng.RunFor(10 * sim.Second)
	if !hb.Done() {
		t.Fatalf("hackbench incomplete: ops=%d", hb.Ops())
	}
	// groups × senders × receivers × messages-per-pair.
	if hb.Ops() != 2*2*2*50 {
		t.Fatalf("messages received=%d want 400", hb.Ops())
	}
}

func TestFioMostlySleeps(t *testing.T) {
	eng, vm := testVM(t, 2)
	f := NewFio(env(vm, 0), 2)
	f.Start()
	eng.RunFor(1 * sim.Second)
	// ~1s / 69us per op per thread = ~14.5k/thread.
	if f.Ops() < 15000 || f.Ops() > 35000 {
		t.Fatalf("fio ops=%d", f.Ops())
	}
}

func TestMatmulPureCompute(t *testing.T) {
	eng, vm := testVM(t, 2)
	m := NewMatmul(env(vm, 0), 2)
	m.Start()
	eng.RunFor(1 * sim.Second)
	// 2 threads × (1s / 5ms) = ~400 chunks.
	if m.Ops() < 350 || m.Ops() > 450 {
		t.Fatalf("matmul ops=%d", m.Ops())
	}
}

func TestCatalogCoverage(t *testing.T) {
	// Every workload named by the overall-evaluation figures must resolve.
	for _, n := range append(Fig18ThroughputNames(), Fig18LatencyNames()...) {
		if _, ok := ByName(n); !ok {
			t.Fatalf("catalog missing %q", n)
		}
	}
	if len(Names()) < 30 {
		t.Fatalf("catalog too small: %d", len(Names()))
	}
	if _, ok := ByName("no-such-benchmark"); ok {
		t.Fatal("ByName must fail for unknown names")
	}
}

func TestCatalogInstancesRun(t *testing.T) {
	// Smoke-run every catalogued benchmark briefly: it must make progress
	// and not panic.
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			eng, vm := testVM(t, 4)
			inst := spec.New(Env{VM: vm, Threads: 4, Nominal: 1.0})
			inst.Start()
			eng.RunFor(1 * sim.Second)
			if inst.Ops() == 0 {
				t.Fatalf("%s made no progress", spec.Name)
			}
			// The overall evaluation's latency workloads are request servers
			// that record per-request latency.
			if slices.Contains(Fig18LatencyNames(), spec.Name) {
				srv, ok := inst.(*Server)
				if !ok {
					t.Fatalf("%s is a latency workload but not a request server", spec.Name)
				}
				if srv.E2E().Count() == 0 {
					t.Fatalf("%s recorded no latencies", spec.Name)
				}
			}
		})
	}
}

func TestServerStickyMode(t *testing.T) {
	eng, vm := testVM(t, 4)
	srv := NewServer(env(vm, 0), ServerConfig{
		Name: "sticky", Workers: 2, Connections: 4, Sticky: true,
		ServiceMean: 200 * sim.Microsecond,
	})
	srv.Start()
	eng.RunFor(2 * sim.Second)
	if srv.Ops() < 1000 {
		t.Fatalf("sticky server made little progress: %d", srv.Ops())
	}
	srv.Stop()
	eng.RunFor(100 * sim.Millisecond)
	after := srv.Ops()
	eng.RunFor(500 * sim.Millisecond)
	if srv.Ops() != after {
		t.Fatal("stopped server kept serving")
	}
}

func TestInstanceAccessors(t *testing.T) {
	eng, vm := testVM(t, 4)
	e := env(vm, 0)
	hb := NewHackbench(e, 0, 0, 0) // all defaults
	sb := NewSysbench(e, 2)
	f := NewFio(e, 2)
	m := NewMatmul(e, 2)
	p := NewParallel(e, ParallelSpec{Name: "k", IterWork: sim.Millisecond, Sync: SyncNone})
	pl := NewPipeline(e, PipelineSpec{Name: "pl", WorkCPU: sim.Millisecond})
	if hb.Done() || p.Done() {
		t.Fatal("fresh instance cannot be done")
	}
	for _, inst := range []Instance{hb, sb, f, m, p, pl} {
		inst.Start()
		inst.Start() // idempotent
	}
	eng.RunFor(300 * sim.Millisecond)
	if p.Threads() != 4 || len(p.Tasks()) != 4 {
		t.Fatalf("parallel should default to one thread per vCPU: %d", p.Threads())
	}
	for name, l := range map[string]*Loop{"sysbench": sb, "fio": f, "matmul": m} {
		if len(l.Tasks()) != 2 || l.Tasks()[1].Name() != name+"/t1" {
			t.Fatalf("%s tasks", name)
		}
	}
	pl.Stop()
	p.Stop()
	eng.RunFor(200 * sim.Millisecond)
	if !p.Done() {
		t.Fatal("stopped kernel did not finish")
	}
}

func TestSerialPhaseSemantics(t *testing.T) {
	// With a serial fraction, exactly one thread computes during the serial
	// window while the rest wait — measurable as per-thread runtime skew
	// and an iteration time longer than the parallel part alone.
	eng, vm := testVM(t, 4)
	p := NewParallel(env(vm, 4), ParallelSpec{
		Name: "amdahl", IterWork: 1 * sim.Millisecond,
		Sync: SyncBarrier, SerialFrac: 0.25, Iterations: 50,
	})
	p.Start()
	eng.RunFor(10 * sim.Second)
	if !p.Done() {
		t.Fatal("kernel did not finish")
	}
	// Expected iteration wall time: 1ms parallel + 0.25*1ms*4 = 1ms serial.
	elapsed := float64(p.FinishedAt)
	perIter := elapsed / 50
	if perIter < float64(1800*sim.Microsecond) || perIter > float64(2600*sim.Microsecond) {
		t.Fatalf("iteration time %.2fms, want ~2ms (1ms parallel + 1ms serial)", perIter/1e6)
	}
	// The owner (thread 0) must have run roughly twice as long as others.
	tasks := p.Tasks()
	owner := float64(tasks[0].TotalRun())
	other := float64(tasks[1].TotalRun())
	if owner < other*1.5 {
		t.Fatalf("owner should carry the serial work: %.1fms vs %.1fms", owner/1e6, other/1e6)
	}
}

func TestSerialPhaseIgnoredForSingleThread(t *testing.T) {
	eng, vm := testVM(t, 2)
	p := NewParallel(env(vm, 1), ParallelSpec{
		Name: "solo", IterWork: 1 * sim.Millisecond,
		Sync: SyncBarrier, SerialFrac: 0.5, Iterations: 20,
	})
	p.Start()
	eng.RunFor(5 * sim.Second)
	if !p.Done() {
		t.Fatal("solo kernel did not finish")
	}
	// No serial overhead at 1 thread: ~20ms total.
	if p.FinishedAt > sim.Time(40*sim.Millisecond) {
		t.Fatalf("single-thread run should skip serial phases: %v", p.FinishedAt)
	}
}

func TestHeavyTailServiceDistribution(t *testing.T) {
	eng, vm := testVM(t, 4)
	srv := NewServer(env(vm, 0), ServerConfig{
		Name: "search", Workers: 4, ServiceMean: 1 * sim.Millisecond,
		Interarrival: 4 * sim.Millisecond, HeavyTail: true,
	})
	srv.Start()
	eng.RunFor(20 * sim.Second)
	// A bounded Pareto's p99/p50 spread far exceeds uniform jitter's.
	p50, p99 := srv.Service().P50(), srv.Service().P99()
	if p99 < 3*p50 {
		t.Fatalf("heavy tail missing: p50=%d p99=%d", p50, p99)
	}
	if p99 > int64(7*sim.Millisecond) {
		t.Fatalf("tail must stay bounded at 6x mean: p99=%d", p99)
	}
}

// TestServerStreamIsScheduleIndependent pins the common-random-numbers
// property: the request stream (arrival gaps and per-request service
// demands) comes from the server's private RNG, so components drawing from
// the engine's shared source — probers, contenders, cache jitter — cannot
// shift it. Comparing two scheduler configurations therefore compares
// scheduling, not tail-sampling noise.
func TestServerStreamIsScheduleIndependent(t *testing.T) {
	run := func(perturb bool) (uint64, int64) {
		eng, vm := testVM(t, 4)
		if perturb {
			// Burn shared-RNG draws the way a prober or contender would.
			for i := 0; i < 1000; i++ {
				eng.Rand().Int63()
			}
		}
		srv := NewServer(env(vm, 0), ServerConfig{
			Name: "search", Workers: 4, ServiceMean: 1 * sim.Millisecond,
			Interarrival: 5 * sim.Millisecond, HeavyTail: true,
		})
		srv.Start()
		eng.RunFor(20 * sim.Second)
		return srv.Ops(), srv.Service().P99()
	}
	ops0, svc0 := run(false)
	ops1, svc1 := run(true)
	if ops0 != ops1 || svc0 != svc1 {
		t.Fatalf("request stream moved with shared-RNG state: ops %d vs %d, service p99 %d vs %d",
			ops0, ops1, svc0, svc1)
	}
}
