package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

func testHostConfig() host.Config {
	cfg := host.DefaultConfig()
	cfg.Sockets = 1
	cfg.CoresPerSocket = 2
	cfg.ThreadsPerCore = 2
	return cfg
}

func testMix() []TypeMix {
	return []TypeMix{
		{Type: VMType{Name: "svc", VCPUs: 2, Service: true, ServiceMean: 300 * sim.Microsecond},
			Weight: 2, MeanLifetime: 1500 * sim.Millisecond},
		{Type: VMType{Name: "batch", VCPUs: 2, BatchWork: sim.Millisecond},
			Weight: 1, MeanLifetime: 1200 * sim.Millisecond},
	}
}

func testConfig(seed int64, pol Policy, vs bool) Config {
	return Config{
		Seed:       seed,
		Hosts:      4,
		HostConfig: testHostConfig(),
		Overcommit: 2.0,
		Policy:     pol,
		VSched:     vs,
		Arrivals:   GenerateArrivals(seed, 12, 1500*sim.Millisecond, testMix()),
		Horizon:    2500 * sim.Millisecond,
		Migration: MigrationConfig{
			Every:    250 * sim.Millisecond,
			MinSteal: 0.05,
			Margin:   0.02,
			Downtime: 10 * sim.Millisecond,
		},
	}
}

func TestPolicyDecisions(t *testing.T) {
	hosts := []HostInfo{
		{Index: 0, Committed: 6, Capacity: 8, StealRate: 0.30},
		{Index: 1, Committed: 2, Capacity: 8, StealRate: 0.10},
		{Index: 2, Committed: 4, Capacity: 8, StealRate: 0.05},
	}
	if got := (FirstFit{}).Place(hosts, 2); got != 0 {
		t.Fatalf("first-fit chose %d, want 0", got)
	}
	if got := (FirstFit{}).Place(hosts, 4); got != 1 {
		t.Fatalf("first-fit (no room on 0) chose %d, want 1", got)
	}
	if got := (LeastLoaded{}).Place(hosts, 2); got != 1 {
		t.Fatalf("least-loaded chose %d, want 1", got)
	}
	if got := (StealAware{}).Place(hosts, 2); got != 2 {
		t.Fatalf("steal-aware chose %d, want 2", got)
	}
	// Steal ties break toward fewer commitments.
	hosts[1].StealRate = 0.05
	if got := (StealAware{}).Place(hosts, 2); got != 1 {
		t.Fatalf("steal-aware tie-break chose %d, want 1", got)
	}
	full := []HostInfo{{Index: 0, Committed: 8, Capacity: 8}}
	for _, p := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		if got := p.Place(full, 1); got != -1 {
			t.Fatalf("%s placed on a full cluster (host %d)", p.Name(), got)
		}
	}
}

func TestLifecycleAndOccupancy(t *testing.T) {
	f := New(testConfig(7, FirstFit{}, false))
	res := f.Run()
	if res.Placed == 0 {
		t.Fatal("nothing placed")
	}
	if res.Placed+res.Rejected != res.Arrivals {
		t.Fatalf("placed %d + rejected %d != arrivals %d", res.Placed, res.Rejected, res.Arrivals)
	}
	if res.Departed == 0 {
		t.Fatal("no VM departed despite finite lifetimes shorter than the horizon")
	}
	if res.Ops == 0 || res.E2E.Count() == 0 {
		t.Fatalf("no work measured: ops=%d e2e=%d", res.Ops, res.E2E.Count())
	}
	// Occupancy must balance: committed == live vCPUs, per host.
	cap := f.capacity()
	for _, hs := range f.hosts {
		live := 0
		for _, vm := range hs.vms {
			if !vm.alive {
				t.Fatalf("dead VM %s still listed on host %d", vm.name, hs.index)
			}
			live += vm.typ.VCPUs
		}
		if hs.committed != live {
			t.Fatalf("host %d committed=%d but live vCPUs=%d", hs.index, hs.committed, live)
		}
		if hs.committed > cap {
			t.Fatalf("host %d overcommitted beyond capacity: %d > %d", hs.index, hs.committed, cap)
		}
		sum := 0
		for _, o := range hs.occ {
			sum += o
		}
		if sum != hs.committed {
			t.Fatalf("host %d thread occupancy sums to %d, committed %d", hs.index, sum, hs.committed)
		}
	}
}

func TestMigrationMovesEntitiesAcrossHosts(t *testing.T) {
	// A packing policy under contention-driven migration must move someone.
	cfg := testConfig(11, FirstFit{}, false)
	f := New(cfg)
	res := f.Run()
	if res.Migrations == 0 {
		t.Fatal("migration controller never fired on a packed first-fit cluster")
	}
	// Every alive VM's vCPU entities must sit on threads of its recorded host.
	for _, vm := range f.vms {
		if !vm.alive {
			continue
		}
		hs := f.hosts[vm.hostIdx]
		for i, v := range vm.gvm.VCPUs() {
			th := v.Entity().Thread()
			if th != hs.h.Thread(vm.threads[i]) {
				t.Fatalf("%s vCPU %d entity on wrong thread after migration", vm.name, i)
			}
		}
	}
}

func TestRerunIsIdentical(t *testing.T) {
	run := func() *Result { return New(testConfig(42, StealAware{}, true)).Run() }
	a, b := run(), run()
	if a.Placed != b.Placed || a.Rejected != b.Rejected || a.Departed != b.Departed ||
		a.Migrations != b.Migrations || a.Ops != b.Ops || a.Steal != b.Steal ||
		a.Events != b.Events {
		t.Fatalf("rerun diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.E2E.Count() != b.E2E.Count() || a.E2E.P50() != b.E2E.P50() || a.E2E.P95() != b.E2E.P95() {
		t.Fatal("rerun produced a different latency distribution")
	}
}

func TestShardedMatchesSerial(t *testing.T) {
	var cfgs []Config
	for _, pol := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		for _, vs := range []bool{false, true} {
			cfgs = append(cfgs, testConfig(42, pol, vs))
		}
	}
	serial := RunAll(cfgs, 1, nil)
	parallel := RunAll(cfgs, 4, nil)
	for i := range cfgs {
		s, p := serial[i], parallel[i]
		if s.Placed != p.Placed || s.Migrations != p.Migrations || s.Ops != p.Ops ||
			s.Steal != p.Steal || s.Events != p.Events ||
			s.E2E.P50() != p.E2E.P50() || s.E2E.P95() != p.E2E.P95() {
			t.Fatalf("cell %d (%s/%s) differs between serial and sharded runs:\n%+v\nvs\n%+v",
				i, s.Policy, s.Guest, s, p)
		}
	}
}

// TestRunAllPanicReachesCaller: a cell that panics mid-run on a worker
// goroutine must not kill the process. The panic comes back on the caller's
// goroutine with its original value, whatever the worker count.
func TestRunAllPanicReachesCaller(t *testing.T) {
	type ledgerBroken struct{ cell int }
	cfgs := []Config{
		testConfig(42, FirstFit{}, false),
		testConfig(42, FirstFit{}, true),
		testConfig(42, StealAware{}, false),
	}
	for _, workers := range []int{1, 4} {
		got := func() (p any) {
			defer func() { p = recover() }()
			RunAll(cfgs, workers, func(i int, f *Fleet) {
				if i == 1 {
					f.Engine().After(100*sim.Millisecond, func() { panic(ledgerBroken{i}) })
				}
			})
			return nil
		}()
		if got != (ledgerBroken{1}) {
			t.Fatalf("workers=%d: recovered %v (%T), want ledgerBroken{1}", workers, got, got)
		}
	}
}

// TestFleetAttribution covers the cloud-layer integration of the latency
// profiler: one profile per placed VM, conservation fleet-wide (organic
// contention, live migration and all), fleet.attrib.* gauges, byte-identical
// reruns, and strict observation inertness versus a profiler-free run.
func TestFleetAttribution(t *testing.T) {
	base := New(testConfig(11, FirstFit{}, false)).Run()
	if base.Attribution != nil {
		t.Fatal("attribution off must leave Result.Attribution nil")
	}
	run := func() (*Fleet, *Result) {
		cfg := testConfig(11, FirstFit{}, false)
		cfg.Attribution = true
		f := New(cfg)
		return f, f.Run()
	}
	f, res := run()

	// Observation is inert: every simulation-derived number matches the
	// profiler-free run bit for bit.
	if res.Placed != base.Placed || res.Ops != base.Ops || res.Steal != base.Steal ||
		res.Events != base.Events || res.Migrations != base.Migrations ||
		res.E2E.Count() != base.E2E.Count() || res.E2E.P95() != base.E2E.P95() {
		t.Fatalf("attribution perturbed the simulation: placed %d/%d ops %d/%d events %d/%d",
			res.Placed, base.Placed, res.Ops, base.Ops, res.Events, base.Events)
	}
	if res.Migrations == 0 {
		t.Fatal("rig must exercise live migration (profiles have to survive it)")
	}
	if len(res.Attribution) != res.Placed {
		t.Fatalf("want one profile per placed VM (%d), got %d", res.Placed, len(res.Attribution))
	}
	flat := f.Registry().Snapshot().Flatten()
	spans := 0
	for name, p := range res.Attribution {
		if err := p.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spans += len(p.Spans)
		for _, key := range []string{"steal_wait_ns", "run_ns", "spans"} {
			if _, ok := flat["fleet.attrib."+name+"."+key]; !ok {
				t.Fatalf("registry missing gauge fleet.attrib.%s.%s", name, key)
			}
		}
	}
	if spans == 0 {
		t.Fatal("no spans reconstructed fleet-wide")
	}

	// Rerun determinism, down to the flattened per-VM profiles.
	_, res2 := run()
	if len(res2.Attribution) != len(res.Attribution) {
		t.Fatalf("rerun profile count diverged: %d vs %d", len(res2.Attribution), len(res.Attribution))
	}
	for name, p := range res.Attribution {
		q, ok := res2.Attribution[name]
		if !ok {
			t.Fatalf("rerun lost profile for %s", name)
		}
		fa, fb := p.Flatten(), q.Flatten()
		for k, v := range fa {
			if fb[k] != v {
				t.Fatalf("%s: rerun diverged on %s: %v vs %v", name, k, v, fb[k])
			}
		}
	}
}

// TestNoSyntheticContenders pins the package's contract: fleet contention is
// organic (colocated VMs), never a host.Contender.
func TestNoSyntheticContenders(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "Contender") || strings.Contains(string(src), "NewStressor") {
			t.Fatalf("%s references synthetic contenders; fleet contention must be organic", file)
		}
	}
}

// TestTelemetryObservationInert: attaching the flight recorder must not
// perturb the simulation — every result field except the recorder itself is
// identical with telemetry on and off, and a rerun with telemetry produces a
// byte-identical deterministic snapshot.
func TestTelemetryObservationInert(t *testing.T) {
	withTelem := func() *Result {
		cfg := testConfig(7, StealAware{}, true)
		cfg.Telemetry = &telemetry.Config{Interval: 20 * sim.Millisecond}
		return New(cfg).Run()
	}
	off := New(testConfig(7, StealAware{}, true)).Run()
	on := withTelem()
	if on.Telemetry == nil {
		t.Fatal("telemetry config set but Result.Telemetry is nil")
	}
	if off.Telemetry != nil {
		t.Fatal("telemetry not configured but Result.Telemetry is set")
	}
	// The recorder's sampling ticks are engine events, so Events grows; every
	// simulation outcome must be untouched.
	if on.Placed != off.Placed || on.Rejected != off.Rejected || on.Departed != off.Departed ||
		on.Migrations != off.Migrations || on.Ops != off.Ops || on.Steal != off.Steal {
		t.Fatalf("telemetry perturbed the run:\non  %+v\noff %+v", on, off)
	}
	if on.Events < off.Events {
		t.Fatalf("telemetry run fired fewer events (%d) than baseline (%d)", on.Events, off.Events)
	}
	if on.E2E.Count() != off.E2E.Count() || on.E2E.P95() != off.E2E.P95() {
		t.Fatal("telemetry perturbed the latency distribution")
	}

	snap := func(r *Result) string {
		var b strings.Builder
		if err := r.Telemetry.Snapshot(false).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := snap(on), snap(withTelem()); a != b {
		t.Fatalf("telemetry snapshot not reproducible across reruns (%d vs %d bytes)", len(a), len(b))
	}
	if len(on.Telemetry.Series(false)) == 0 || on.Telemetry.Samples() == 0 {
		t.Fatal("recorder attached but captured nothing")
	}
}
