package vsched_test

import (
	"strings"
	"testing"

	"vsched"
)

// mustWorkload instantiates a catalogued benchmark, failing tb on a bad name.
func mustWorkload(tb testing.TB, cl *vsched.Cluster, vm *vsched.VM, sched *vsched.VSched, name string, threads int) vsched.WorkloadInstance {
	tb.Helper()
	inst, err := cl.Workload(vm, sched, name, threads)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func TestClusterDefaults(t *testing.T) {
	cl := vsched.NewCluster(vsched.ClusterConfig{})
	if cl.Host().NumThreads() != 8 {
		t.Fatalf("default topology should be 8 threads, got %d", cl.Host().NumThreads())
	}
	if cl.Now() != 0 {
		t.Fatal("fresh cluster should start at t=0")
	}
	cl.RunFor(5 * vsched.Millisecond)
	if cl.Now() != vsched.Time(5*vsched.Millisecond) {
		t.Fatalf("RunFor landed at %v", cl.Now())
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 1, CoresPerSocket: 4})
	vm := cl.NewVM("vm", []int{0, 1, 2, 3})
	sched := cl.EnableVSched(vm, vsched.AllFeatures())
	for i := 0; i < 4; i++ {
		cl.AddStressor(i, vsched.DefaultWeight)
	}
	inst := mustWorkload(t, cl, vm, sched, "sysbench", 4)
	inst.Start()
	cl.RunFor(5 * vsched.Second)
	if inst.Ops() == 0 {
		t.Fatal("workload made no progress")
	}
	// Probers must have learned a ~50% capacity.
	c := vm.VCPU(0).Capacity()
	if c < 380 || c > 650 {
		t.Fatalf("probed capacity %d, want ~512", c)
	}
}

func TestFacadeUnknownWorkloadErrors(t *testing.T) {
	cl := vsched.NewCluster(vsched.ClusterConfig{})
	vm := cl.NewVM("vm", []int{0})
	inst, err := cl.Workload(vm, nil, "no-such-benchmark", 1)
	if err == nil || inst != nil {
		t.Fatalf("unknown workload = (%v, %v), want (nil, error)", inst, err)
	}
	if !strings.Contains(err.Error(), `"no-such-benchmark"`) {
		t.Fatalf("error does not name the workload: %v", err)
	}
}

func TestWorkloadNamesAndExperimentIDs(t *testing.T) {
	if len(vsched.WorkloadNames()) < 30 {
		t.Fatalf("catalogue too small: %d", len(vsched.WorkloadNames()))
	}
	ids := vsched.ExperimentIDs()
	if len(ids) != 26 {
		t.Fatalf("want 26 experiments (fig2..21 + tables + probeacc + fleet + attrib + fleetobs + fleetscale + faulttol + obsplane), got %d: %v", len(ids), ids)
	}
	for _, want := range []string{"fig2", "fig10b", "table2", "fig18", "fig21", "probeacc", "fleet", "attrib", "fleetscale", "faulttol", "obsplane"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("experiment %s missing from registry", want)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := vsched.RunExperiment("fig999", vsched.ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	rep, err := vsched.RunExperiment("fig3", vsched.ExperimentOptions{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("fig3 should have 2 rows, got %d", len(rep.Rows))
	}
	if !strings.Contains(rep.String(), "fig3") {
		t.Fatal("report text should carry its id")
	}
}

func TestSetVCPULatencyAffectsTails(t *testing.T) {
	run := func(lat vsched.Duration) int64 {
		cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 2, CoresPerSocket: 2})
		vm := cl.NewVM("vm", []int{0, 1})
		for i := 0; i < 2; i++ {
			cl.AddStressor(i, vsched.DefaultWeight)
			cl.SetVCPULatency(i, lat)
		}
		srv := cl.NewServer(vm, nil, vsched.ServerConfig{
			Name: "svc", Workers: 1, ServiceMean: 100 * vsched.Microsecond,
			Interarrival: 50 * vsched.Millisecond, LatencyMark: true,
		})
		srv.Start()
		cl.RunFor(20 * vsched.Second)
		return srv.E2E().P95()
	}
	lo, hi := run(2*vsched.Millisecond), run(12*vsched.Millisecond)
	if hi < 2*lo {
		t.Fatalf("tail latency should follow the latency knob: 2ms->%d 12ms->%d", lo, hi)
	}
}

func TestDeterminismAcrossFacade(t *testing.T) {
	run := func() uint64 {
		cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 77, CoresPerSocket: 8})
		vm := cl.NewVM("vm", []int{0, 1, 2, 3, 4, 5, 6, 7})
		sched := cl.EnableVSched(vm, vsched.AllFeatures())
		for i := 0; i < 8; i++ {
			cl.AddStressor(i, vsched.DefaultWeight)
		}
		inst := mustWorkload(t, cl, vm, sched, "nginx", 0)
		inst.Start()
		cl.RunFor(5 * vsched.Second)
		return inst.Ops()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed must reproduce exactly: %d vs %d", a, b)
	}
}

func TestEEVDFVMThroughFacade(t *testing.T) {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 3, CoresPerSocket: 4})
	p := vsched.DefaultGuestParams()
	p.Policy = vsched.PolicyEEVDF
	vm := cl.NewVMWithParams("vm", []int{0, 1, 2, 3}, p)
	sched := cl.EnableVSched(vm, vsched.AllFeatures())
	inst := mustWorkload(t, cl, vm, sched, "sysbench", 4)
	inst.Start()
	cl.RunFor(3 * vsched.Second)
	if inst.Ops() == 0 {
		t.Fatal("EEVDF VM made no progress")
	}
}

func TestExtensionsThroughFacade(t *testing.T) {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 4, CoresPerSocket: 4})
	vm := cl.NewVM("vm", []int{0, 1, 2, 3})
	feats := vsched.AllFeatures()
	feats.Vllc = true
	sched := cl.EnableVSched(vm, feats)
	cl.AddStressor(0, vsched.DefaultWeight)
	cl.RunFor(8 * vsched.Second)
	// AutoTune returns sane, installed parameters.
	tuned := sched.AutoTune()
	if tuned.SamplePeriod < 100*vsched.Millisecond {
		t.Fatalf("tuned period %v below floor", tuned.SamplePeriod)
	}
	// CacheShare is measurable and bounded.
	if s := sched.CacheShare(0); s <= 0 || s > 1 {
		t.Fatalf("cache share out of range: %v", s)
	}
}
