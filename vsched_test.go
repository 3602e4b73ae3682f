package vsched_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"vsched"
	"vsched/internal/experiments"
	"vsched/internal/vtrace"
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

// mustCluster builds a cluster, failing tb on a bad topology.
func mustCluster(tb testing.TB, cfg vsched.ClusterConfig) *vsched.Cluster {
	tb.Helper()
	cl, err := vsched.NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// mustVM creates a VM on threadIDs, failing tb on a bad thread id.
func mustVM(tb testing.TB, cl *vsched.Cluster, name string, threadIDs []int) *vsched.VM {
	tb.Helper()
	vm, err := cl.NewVM(name, threadIDs)
	if err != nil {
		tb.Fatal(err)
	}
	return vm
}

// mustStressor puts a default-weight stressor on thread id, failing tb on a
// bad id.
func mustStressor(tb testing.TB, cl *vsched.Cluster, id int) {
	tb.Helper()
	if _, err := cl.AddStressor(id, vsched.DefaultWeight); err != nil {
		tb.Fatal(err)
	}
}

// mustPattern puts a square-wave contender on thread id, failing tb on a
// bad id.
func mustPattern(tb testing.TB, cl *vsched.Cluster, id int, on, off, phase vsched.Duration) {
	tb.Helper()
	if _, err := cl.AddPatternContender(id, on, off, phase); err != nil {
		tb.Fatal(err)
	}
}

// mustLatency sets thread id's vCPU latency, failing tb on a bad id.
func mustLatency(tb testing.TB, cl *vsched.Cluster, id int, lat vsched.Duration) {
	tb.Helper()
	if err := cl.SetVCPULatency(id, lat); err != nil {
		tb.Fatal(err)
	}
}

func TestClusterDefaults(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{})
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

// TestClusterTopology: a zero topology field takes its default, a positive
// one is used as given, and a negative one is an error naming the field
// that builds no cluster.
func TestClusterTopology(t *testing.T) {
	for _, c := range []struct {
		cfg     vsched.ClusterConfig
		threads int    // want on success
		field   string // want in the error; "" = success
	}{
		{vsched.ClusterConfig{}, 8, ""},
		{vsched.ClusterConfig{Sockets: 2, CoresPerSocket: 3, ThreadsPerCore: 2}, 12, ""},
		{vsched.ClusterConfig{CoresPerSocket: 4, ThreadsPerCore: 0}, 4, ""},
		{vsched.ClusterConfig{Sockets: -1}, 0, "Sockets"},
		{vsched.ClusterConfig{CoresPerSocket: -4}, 0, "CoresPerSocket"},
		{vsched.ClusterConfig{Sockets: 2, ThreadsPerCore: -2}, 0, "ThreadsPerCore"},
	} {
		cl, err := vsched.NewCluster(c.cfg)
		if c.field == "" {
			if err != nil {
				t.Errorf("%+v: %v", c.cfg, err)
			} else if n := cl.Host().NumThreads(); n != c.threads {
				t.Errorf("%+v: %d threads, want %d", c.cfg, n, c.threads)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "ClusterConfig."+c.field+" ") || cl != nil {
			t.Errorf("%+v = (%v, %v), want (nil, error naming %s)", c.cfg, cl, err, c.field)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{Seed: 1, CoresPerSocket: 4})
	vm := mustVM(t, cl, "vm", []int{0, 1, 2, 3})
	sched := cl.EnableVSched(vm, vsched.AllFeatures())
	for i := 0; i < 4; i++ {
		mustStressor(t, cl, i)
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

// TestChromeExportHostileNames traces a VM and a task whose names hold
// control bytes and invalid UTF-8. The export must be valid JSON, with each
// name decoding to itself (invalid bytes as U+FFFD).
func TestChromeExportHostileNames(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{Seed: 1, CoresPerSocket: 1})
	tr := vtrace.New(0)
	vtrace.AttachHost(tr, cl.Host())
	vm := mustVM(t, cl, "vm\x01\xff", []int{0})
	vm.SetTracer(tr)
	mustStressor(t, cl, 0)
	vm.Spawn("t\x00ask", func(vsched.Time) vsched.Segment { return vsched.ComputeForever() })
	cl.RunFor(50 * vsched.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string
			Name string
			Args struct{ Name string }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Ph == "M" {
			names[ev.Args.Name] = true
		}
	}
	for _, want := range []string{"vm\x01\ufffd/vcpu0", "t\x00ask", "wakeup:t\x00ask"} {
		if !names[want] {
			t.Errorf("export lost the name %q", want)
		}
	}
}

// TestFacadeBadThreadIDs: every facade call that takes a hardware thread id
// returns an error naming the id for one outside the host, instead of
// panicking on the host's thread table, and builds nothing.
func TestFacadeBadThreadIDs(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{CoresPerSocket: 4})
	for _, id := range []int{-1, 4, 1 << 20} {
		want := fmt.Sprintf("thread id %d outside [0, 4)", id)
		check := func(call string, err error, built bool) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s(%d): error %v, want one containing %q", call, id, err, want)
			}
			if built {
				t.Errorf("%s(%d): returned a value along with the error", call, id)
			}
		}
		vm, err := cl.NewVM("vm", []int{0, id})
		check("NewVM", err, vm != nil)
		vm, err = cl.NewVMWithParams("vm", []int{id}, vsched.DefaultGuestParams())
		check("NewVMWithParams", err, vm != nil)
		e, err := cl.AddStressor(id, vsched.DefaultWeight)
		check("AddStressor", err, e != nil)
		pc, err := cl.AddPatternContender(id, vsched.Millisecond, vsched.Millisecond, 0)
		check("AddPatternContender", err, pc != nil)
		check("SetVCPULatency", cl.SetVCPULatency(id, vsched.Millisecond), false)
	}
	if vm, err := cl.NewVM("empty", nil); err == nil || vm != nil {
		t.Errorf("NewVM with no threads: vm %v, err %v; want an error", vm, err)
	}

	// The valid edge ids still work.
	vm := mustVM(t, cl, "vm", []int{0, 3})
	mustStressor(t, cl, 3)
	mustPattern(t, cl, 0, vsched.Millisecond, vsched.Millisecond, 0)
	mustLatency(t, cl, 3, vsched.Millisecond)
	cl.RunFor(10 * vsched.Millisecond)
	if vm.NumVCPUs() != 2 {
		t.Fatalf("VM has %d vCPUs, want 2", vm.NumVCPUs())
	}
}

// TestFacadeBadArguments: a co-tenant or latency argument the host cannot
// run is an error naming the argument, and the call builds nothing.
func TestFacadeBadArguments(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{CoresPerSocket: 4})
	ms := vsched.Millisecond
	stressor := func(w int64) func() (bool, error) {
		return func() (bool, error) { e, err := cl.AddStressor(1, w); return e != nil, err }
	}
	pattern := func(on, off, phase vsched.Duration) func() (bool, error) {
		return func() (bool, error) { pc, err := cl.AddPatternContender(1, on, off, phase); return pc != nil, err }
	}
	latency := func(lat vsched.Duration) func() (bool, error) {
		return func() (bool, error) { return false, cl.SetVCPULatency(1, lat) }
	}
	cases := []struct {
		want string
		call func() (bool, error)
	}{
		{"weight 0", stressor(0)},
		{"weight -3", stressor(-3)},
		{"on 0.000ms", pattern(0, ms, 0)},
		{"on -1.000ms", pattern(-ms, ms, 0)},
		{"off -1.000ms", pattern(ms, -ms, 0)},
		{"phase -1.000ms", pattern(ms, ms, -ms)},
		{"lat -1.000ms", latency(-ms)},
	}
	for _, tc := range cases {
		built, err := tc.call()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.want, err, tc.want)
		}
		if built {
			t.Errorf("%s: returned a value along with the error", tc.want)
		}
	}

	// The boundary values still work: off 0, phase 0 and lat 0 (the host
	// default).
	vm := mustVM(t, cl, "vm", []int{0, 1})
	mustPattern(t, cl, 0, ms, 0, 0)
	mustLatency(t, cl, 1, 0)
	cl.RunFor(10 * ms)
	if vm.NumVCPUs() != 2 {
		t.Fatalf("VM has %d vCPUs, want 2", vm.NumVCPUs())
	}
}

// TestFacadeBadParams: vSched tunables it cannot run with, guest parameters
// the guest cannot run with, and a negative workload thread count, are
// errors naming the field, not a hang, an engine panic or a silent default.
func TestFacadeBadParams(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{CoresPerSocket: 4})
	vm := mustVM(t, cl, "vm", []int{0, 1})
	params := func(edit func(*vsched.Params)) func() (bool, error) {
		return func() (bool, error) {
			p := vsched.DefaultParams()
			edit(&p)
			s, err := cl.EnableVSchedWithParams(vm, vsched.AllFeatures(), p)
			return s != nil, err
		}
	}
	// Guest params go to NewVMWithParams, which must reject them before the
	// VM starts: TickPeriod 0 would hang the first run, a negative one panic.
	guest := func(edit func(*vsched.GuestParams)) func() (bool, error) {
		return func() (bool, error) {
			p := vsched.DefaultGuestParams()
			edit(&p)
			g, err := cl.NewVMWithParams("bad", []int{2, 3}, p)
			return g != nil, err
		}
	}
	cases := []struct {
		want string
		call func() (bool, error)
	}{
		{"NominalSpeed", params(func(p *vsched.Params) { p.NominalSpeed = 0 })},
		{"NominalSpeed", params(func(p *vsched.Params) { p.NominalSpeed = math.NaN() })},
		{"NominalSpeed", params(func(p *vsched.Params) { p.NominalSpeed = math.Inf(1) })},
		{"SamplePeriod", params(func(p *vsched.Params) { p.SamplePeriod = 0 })},
		{"LightEvery", params(func(p *vsched.Params) { p.LightEvery = 0 })},
		{"LightEvery", params(func(p *vsched.Params) { p.LightEvery = p.SamplePeriod / 2 })},
		{"HeavyEveryLights", params(func(p *vsched.Params) { p.HeavyEveryLights = 0 })},
		{"EMAHalfPeriods", params(func(p *vsched.Params) { p.EMAHalfPeriods = -1 })},
		{"VtopEvery", params(func(p *vsched.Params) { p.VtopEvery = -vsched.Second })},
		{"VtopTargetTransfers", params(func(p *vsched.Params) { p.VtopTargetTransfers = 0 })},
		{"VtopTimeoutAttempts", params(func(p *vsched.Params) { p.VtopTimeoutAttempts = -1 })},
		{"StragglerFactor", params(func(p *vsched.Params) { p.StragglerFactor = 0 })},
		{"threads -3", func() (bool, error) { w, err := cl.Workload(vm, nil, "nginx", -3); return w != nil, err }},
		{"threads 8", func() (bool, error) { w, err := cl.Workload(vm, nil, "hackbench", 8); return w != nil, err }},
		{"TickPeriod", guest(func(p *vsched.GuestParams) { p.TickPeriod = 0 })},
		{"TickPeriod", guest(func(p *vsched.GuestParams) { p.TickPeriod = -vsched.Millisecond })},
		{"Policy", guest(func(p *vsched.GuestParams) { p.Policy = 7 })},
		{"CommPenaltySocket", guest(func(p *vsched.GuestParams) { p.CommPenaltySocket = math.NaN() })},
		{"CommPenaltyCross", guest(func(p *vsched.GuestParams) { p.CommPenaltyCross = math.Inf(1) })},
		{"LLCSizeMB", guest(func(p *vsched.GuestParams) { p.LLCSizeMB = math.NaN() })},
		{"LLCSizeMB", guest(func(p *vsched.GuestParams) { p.LLCSizeMB = math.Inf(-1) })},
	}
	for _, tc := range cases {
		built, err := tc.call()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.want, err, tc.want)
		}
		if built {
			t.Errorf("%s: returned a value along with the error", tc.want)
		}
	}

	// hackbench at threads 0 keeps its fixed layout and builds.
	if _, err := cl.Workload(vm, nil, "hackbench", 0); err != nil {
		t.Fatalf("hackbench at threads 0: %v", err)
	}

	// The boundary LightEvery == SamplePeriod is valid, and vSched runs.
	p := vsched.DefaultParams()
	p.LightEvery = p.SamplePeriod
	if _, err := cl.EnableVSchedWithParams(vm, vsched.Features{Vcap: true, Vact: true}, p); err != nil {
		t.Fatalf("boundary params rejected: %v", err)
	}
	cl.RunFor(500 * vsched.Millisecond)
}

func TestFacadeUnknownWorkloadErrors(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{})
	vm := mustVM(t, cl, "vm", []int{0})
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
	cl := mustCluster(t, vsched.ClusterConfig{})
	vm := mustVM(t, cl, "vm", []int{0, 1})
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
	if len(ids) != 24 {
		t.Fatalf("want 24 experiments (fig2..21 + tables + probeacc + fleet + attrib + fleetscale + faulttol), got %d: %v", len(ids), ids)
	}
	for _, want := range []string{"fig2", "fig10b", "table2", "fig18", "fig21", "probeacc", "fleet", "attrib", "fleetscale", "faulttol"} {
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
		cl := mustCluster(t, vsched.ClusterConfig{Seed: 2, CoresPerSocket: 2})
		vm := mustVM(t, cl, "vm", []int{0, 1})
		for i := 0; i < 2; i++ {
			mustStressor(t, cl, i)
			mustLatency(t, cl, i, lat)
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
		cl := mustCluster(t, vsched.ClusterConfig{Seed: 77, CoresPerSocket: 8})
		vm := mustVM(t, cl, "vm", []int{0, 1, 2, 3, 4, 5, 6, 7})
		sched := cl.EnableVSched(vm, vsched.AllFeatures())
		for i := 0; i < 8; i++ {
			mustStressor(t, cl, i)
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
	cl := mustCluster(t, vsched.ClusterConfig{Seed: 3, CoresPerSocket: 4})
	p := vsched.DefaultGuestParams()
	p.Policy = vsched.PolicyEEVDF
	vm, err := cl.NewVMWithParams("vm", []int{0, 1, 2, 3}, p)
	if err != nil {
		t.Fatal(err)
	}
	sched := cl.EnableVSched(vm, vsched.AllFeatures())
	inst := mustWorkload(t, cl, vm, sched, "sysbench", 4)
	inst.Start()
	cl.RunFor(3 * vsched.Second)
	if inst.Ops() == 0 {
		t.Fatal("EEVDF VM made no progress")
	}
}

func TestExtensionsThroughFacade(t *testing.T) {
	cl := mustCluster(t, vsched.ClusterConfig{Seed: 4, CoresPerSocket: 4})
	vm := mustVM(t, cl, "vm", []int{0, 1, 2, 3})
	feats := vsched.AllFeatures()
	feats.Vllc = true
	sched := cl.EnableVSched(vm, feats)
	mustStressor(t, cl, 0)
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
