package vsched_test

import (
	"math"
	"strings"
	"testing"

	"vsched"
	"vsched/internal/experiments"
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

// TestFacadeNewServerBadConfig: every server config that used to panic deep
// inside the simulation — or that names a nonsense value — is an error from
// NewServer, and the error names the offending field.
func TestFacadeNewServerBadConfig(t *testing.T) {
	ok := vsched.ServerConfig{Name: "svc", Workers: 2, ServiceMean: 100 * vsched.Microsecond,
		Interarrival: vsched.Millisecond}
	cases := []struct {
		field string
		edit  func(*vsched.ServerConfig)
	}{
		{"Workers", func(c *vsched.ServerConfig) { c.Workers = 0 }},
		{"Workers", func(c *vsched.ServerConfig) { c.Workers = -1 }},
		{"ServiceMean", func(c *vsched.ServerConfig) { c.ServiceMean = -vsched.Microsecond }},
		{"ServiceJit", func(c *vsched.ServerConfig) { c.ServiceJit = 1.5 }},
		{"ServiceJit", func(c *vsched.ServerConfig) { c.ServiceJit = -0.1 }},
		{"ServiceJit", func(c *vsched.ServerConfig) { c.ServiceJit = math.NaN() }},
		{"ServiceJit", func(c *vsched.ServerConfig) { c.ServiceJit = math.Inf(1) }},
		{"Interarrival", func(c *vsched.ServerConfig) { c.Interarrival = -vsched.Millisecond }},
		{"Connections", func(c *vsched.ServerConfig) { c.Connections = -1 }},
		{"Think", func(c *vsched.ServerConfig) { c.Connections, c.Think = 2, -vsched.Millisecond }},
		{"FootprintMB", func(c *vsched.ServerConfig) { c.FootprintMB = math.Inf(1) }},
		{"FootprintMB", func(c *vsched.ServerConfig) { c.FootprintMB = math.NaN() }},
		{"FootprintMB", func(c *vsched.ServerConfig) { c.FootprintMB = -1 }},
	}
	cl := vsched.NewCluster(vsched.ClusterConfig{})
	vm := cl.NewVM("vm", []int{0, 1})
	for _, tc := range cases {
		cfg := ok
		tc.edit(&cfg)
		srv, err := cl.NewServer(vm, nil, cfg)
		if err == nil || srv != nil {
			t.Errorf("%+v: got (%v, %v), want (nil, error)", cfg, srv, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %q does not name %s", cfg, err, tc.field)
		}
	}
	// The boundary values are valid, and a valid server runs.
	edge := ok
	edge.ServiceJit, edge.FootprintMB, edge.Connections, edge.Think = 1, 0, 1, 0
	srv, err := cl.NewServer(vm, nil, edge)
	if err != nil {
		t.Fatalf("boundary config rejected: %v", err)
	}
	srv.Start()
	cl.RunFor(100 * vsched.Millisecond)
	if srv.Ops() == 0 {
		t.Fatal("boundary-config server made no progress")
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

// TestRunExperimentBadScale: a scale the measurement windows cannot be
// multiplied by is an error, not a silently degenerate 1 ms report.
func TestRunExperimentBadScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.5} {
		rep, err := vsched.RunExperiment("fig3", vsched.ExperimentOptions{Seed: 1, Scale: scale})
		if err == nil || rep != nil {
			t.Errorf("scale %v = (%v, %v), want (nil, error)", scale, rep, err)
			continue
		}
		if !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %v: error does not name the scale: %v", scale, err)
		}
	}
	// 0 stays the "full length" default.
	if _, err := vsched.RunExperiment("fig3", vsched.ExperimentOptions{Seed: 1}); err != nil {
		t.Fatalf("scale 0: %v", err)
	}
}

// TestRunExperimentsBadScale: the harness entry point rejects the scales
// RunExperiment rejects, before running any trial.
func TestRunExperimentsBadScale(t *testing.T) {
	fig3, _ := experiments.ByID("fig3")
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.5} {
		res, err := vsched.RunExperiments(vsched.HarnessConfig{Scale: scale, Runners: []experiments.Runner{fig3}})
		if err == nil || res != nil {
			t.Errorf("scale %v = (%v, %v), want (nil, error)", scale, res, err)
			continue
		}
		if !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %v: error does not name the scale: %v", scale, err)
		}
	}
	res, err := vsched.RunExperiments(vsched.HarnessConfig{BaseSeed: 1, Scale: 0.2, Runners: []experiments.Runner{fig3}})
	if err != nil || res.Failed() > 0 || res.Trials() != 1 {
		t.Fatalf("scale 0.2 = (%+v, %v), want one passing trial", res, err)
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
		srv, err := cl.NewServer(vm, nil, vsched.ServerConfig{
			Name: "svc", Workers: 1, ServiceMean: 100 * vsched.Microsecond,
			Interarrival: 50 * vsched.Millisecond, LatencyMark: true,
		})
		if err != nil {
			t.Fatal(err)
		}
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
