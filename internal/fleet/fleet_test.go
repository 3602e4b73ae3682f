package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"vsched/internal/faults"
	"vsched/internal/host"
	"vsched/internal/latprof"
	"vsched/internal/metrics"
	"vsched/internal/par"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
	"vsched/internal/vtrace"
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

// indexRows builds a HostIndex over rows, whose Capacity doubles as each
// host's configured capacity, with every leaf written for pol.
func indexRows(pol Policy, rows []HostInfo) *HostIndex {
	caps := make([]int, len(rows))
	for i, h := range rows {
		caps[i] = h.Capacity
	}
	ix := NewHostIndex(caps)
	for i, h := range rows {
		committed, score := indexLeaf(pol, h, h.Capacity)
		ix.Update(i, committed, score)
	}
	return ix
}

func TestPolicyDecisions(t *testing.T) {
	hosts := []HostInfo{
		{Committed: 6, Capacity: 8, StealRate: 0.30},
		{Committed: 2, Capacity: 8, StealRate: 0.10},
		{Committed: 4, Capacity: 8, StealRate: 0.05},
	}
	place := func(p Policy, rows []HostInfo, vcpus int) int {
		return p.Place(indexRows(p, rows), vcpus)
	}
	if got := place(FirstFit{}, hosts, 2); got != 0 {
		t.Fatalf("first-fit chose %d, want 0", got)
	}
	if got := place(FirstFit{}, hosts, 4); got != 1 {
		t.Fatalf("first-fit (no room on 0) chose %d, want 1", got)
	}
	if got := place(LeastLoaded{}, hosts, 2); got != 1 {
		t.Fatalf("least-loaded chose %d, want 1", got)
	}
	if got := place(StealAware{}, hosts, 2); got != 2 {
		t.Fatalf("steal-aware chose %d, want 2", got)
	}
	// Steal ties break toward fewer commitments.
	hosts[1].StealRate = 0.05
	if got := place(StealAware{}, hosts, 2); got != 1 {
		t.Fatalf("steal-aware tie-break chose %d, want 1", got)
	}
	full := []HostInfo{{Committed: 8, Capacity: 8}}
	for _, p := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		if got := place(p, full, 1); got != -1 {
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

// TestShardedMatchesSerial: micro cells, clean and with the fault plane
// active, run under GOMAXPROCS 4 with results identical to GOMAXPROCS 1.
// It runs under -short so the race pass covers concurrent micro cells.
func TestShardedMatchesSerial(t *testing.T) {
	sched := &faults.Schedule{Seed: 9, Events: []faults.Event{
		{At: sim.Time(0).Add(400 * sim.Millisecond), Host: 0, Kind: faults.Crash,
			Duration: 800 * sim.Millisecond},
		{At: sim.Time(0).Add(700 * sim.Millisecond), Host: 1, Kind: faults.Brownout,
			Duration: 600 * sim.Millisecond, Factor: 0.5},
		{At: sim.Time(0).Add(900 * sim.Millisecond), Host: 2, Kind: faults.Stall,
			Duration: 300 * sim.Millisecond},
	}}
	var clean, faulted []Config
	for _, pol := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		for _, vs := range []bool{false, true} {
			clean = append(clean, testConfig(42, pol, vs))
		}
	}
	for _, pol := range []Policy{FirstFit{}, StealAware{}} {
		cfg := testConfig(42, pol, false)
		cfg.Faults = sched
		cfg.Recovery = fastRecovery()
		faulted = append(faulted, cfg)
	}
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{{"clean", clean}, {"faulted", faulted}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(procs int) []*Result {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				return par.Map(len(tc.cfgs), func(i int) *Result { return New(tc.cfgs[i]).Run() })
			}
			serial, parallel := run(1), run(4)
			for i := range tc.cfgs {
				s, p := serial[i], parallel[i]
				if s.Placed != p.Placed || s.Migrations != p.Migrations || s.Ops != p.Ops ||
					s.Steal != p.Steal || s.Events != p.Events ||
					s.E2E.P50() != p.E2E.P50() || s.E2E.P95() != p.E2E.P95() ||
					s.Killed != p.Killed || s.Restarts != p.Restarts || s.Lost != p.Lost ||
					s.Evacuations != p.Evacuations || s.Availability != p.Availability {
					t.Fatalf("cell %d (%s/%s) differs between serial and sharded runs:\n%+v\nvs\n%+v",
						i, s.Policy, s.Guest, s, p)
				}
				if tc.cfgs[i].Faults != nil && s.Killed == 0 {
					t.Fatalf("cell %d: crash killed nothing; rig too quiet", i)
				}
			}
		})
	}
}

// TestFleetAttribution covers the cloud-layer integration of the latency
// profiler: one profile per placed VM, conservation fleet-wide (organic
// contention, live migration and all), byte-identical reruns, and strict
// observation inertness versus a profiler-free run.
func TestFleetAttribution(t *testing.T) {
	base := New(testConfig(11, FirstFit{}, false)).Run()
	if base.Attribution != nil {
		t.Fatal("attribution off must leave Result.Attribution nil")
	}
	run := func() *Result {
		cfg := testConfig(11, FirstFit{}, false)
		cfg.Attribution = true
		return New(cfg).Run()
	}
	res := run()

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
	spans := 0
	for name, p := range res.Attribution {
		if err := p.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spans += len(p.Spans)
	}
	if spans == 0 {
		t.Fatal("no spans reconstructed fleet-wide")
	}

	// Rerun determinism, down to each per-VM profile's published summary.
	res2 := run()
	summary := func(p *latprof.Profile) map[string]float64 {
		reg := metrics.NewRegistry()
		p.Publish(reg)
		return reg.Snapshot().Flatten()
	}
	if len(res2.Attribution) != len(res.Attribution) {
		t.Fatalf("rerun profile count diverged: %d vs %d", len(res2.Attribution), len(res.Attribution))
	}
	for name, p := range res.Attribution {
		q, ok := res2.Attribution[name]
		if !ok {
			t.Fatalf("rerun lost profile for %s", name)
		}
		fa, fb := summary(p), summary(q)
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

// attributionPinned holds digests of every per-VM attribution profile of the
// pinned rigs below, in VM-name order. Profiles are a deterministic fold of
// the trace stream, so any digest moving means attribution output changed:
// a cause split, a span boundary, or a steal-blame name.
var attributionPinned = map[string]string{
	"CFS":    "822da9667a55a9b5",
	"vSched": "e6f27a8109510a03",
}

// TestFleetAttributionPinned runs a reduced micro fleet through a crash with
// recovery (restarted "-rN" incarnations), a brownout evacuation and
// controller migrations, under both guests, and compares a digest of every
// Profile — spans, breakdowns, StealBy, WakerID, Migrations, Open, Truncated
// — with the pinned value. TestFleetAttribution only compares two runs of the
// same code; this pins the output itself.
func TestFleetAttributionPinned(t *testing.T) {
	at := func(ms int) sim.Time { return sim.Time(0).Add(sim.Duration(ms) * sim.Millisecond) }
	dur := func(ms int) sim.Duration { return sim.Duration(ms) * sim.Millisecond }
	sched := &faults.Schedule{Seed: 3, Events: []faults.Event{
		{At: at(500), Host: 0, Kind: faults.Crash, Duration: dur(600)},
		{At: at(800), Host: 1, Kind: faults.Brownout, Duration: dur(700), Factor: 0.5},
	}}
	for _, vs := range []bool{false, true} {
		cfg := testConfig(42, StealAware{}, vs)
		cfg.Arrivals = GenerateArrivals(42, 20, 1500*sim.Millisecond, testMix())
		cfg.Faults, cfg.Recovery = sched, fastRecovery()
		cfg.Attribution = true
		r := New(cfg).Run()
		key := r.Guest
		if r.Evacuations == 0 || r.Migrations <= r.Evacuations || r.Restarts == 0 {
			t.Fatalf("%s: evacuations=%d migrations=%d restarts=%d; the rig must evacuate, "+
				"migrate and restart", key, r.Evacuations, r.Migrations, r.Restarts)
		}
		names := make([]string, 0, len(r.Attribution))
		for name := range r.Attribution {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		spans := 0
		for _, name := range names {
			p := r.Attribution[name]
			fmt.Fprintf(h, "vm %s open=%d truncated=%d dropped=%d\n", p.VM, p.Open, p.Truncated, p.DroppedEvents)
			for i := range p.Spans {
				s := &p.Spans[i]
				fmt.Fprintf(h, "%s %d %d %d %v %d %d", s.Task, s.TaskID, s.Start, s.End, s.NS, s.WakerID, s.Migrations)
				for _, b := range s.StealBy {
					fmt.Fprintf(h, " %s=%d", b.Entity, b.Wait)
				}
				fmt.Fprintln(h)
			}
			spans += len(p.Spans)
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		want, ok := attributionPinned[key]
		if !ok {
			t.Errorf("%q: %q, // unpinned (%d profiles, %d spans)", key, got, len(names), spans)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %s, pinned %s (%d profiles, %d spans)", key, got, want, len(names), spans)
		}
	}
}

// TestAttributionLeavesRingUnchanged: with Attribution on, a host's one tap
// tees every event to the tracer before the attribution fold, so the ring
// holds exactly what a tracer-only run records — on a fleet that crashes,
// restarts, evacuates and migrates, under both guests.
func TestAttributionLeavesRingUnchanged(t *testing.T) {
	at := func(ms int) sim.Time { return sim.Time(0).Add(sim.Duration(ms) * sim.Millisecond) }
	dur := func(ms int) sim.Duration { return sim.Duration(ms) * sim.Millisecond }
	sched := &faults.Schedule{Seed: 3, Events: []faults.Event{
		{At: at(500), Host: 0, Kind: faults.Crash, Duration: dur(600)},
		{At: at(800), Host: 1, Kind: faults.Brownout, Duration: dur(700), Factor: 0.5},
	}}
	for _, vs := range []bool{false, true} {
		run := func(attribution bool) (*vtrace.Tracer, *Result) {
			cfg := testConfig(42, StealAware{}, vs)
			cfg.Arrivals = GenerateArrivals(42, 20, 1500*sim.Millisecond, testMix())
			cfg.Faults, cfg.Recovery = sched, fastRecovery()
			cfg.Tracer = vtrace.New(0)
			cfg.Attribution = attribution
			return cfg.Tracer, New(cfg).Run()
		}
		ring, r := run(false)
		teed, ra := run(true)
		if r.Evacuations == 0 || r.Migrations <= r.Evacuations || r.Restarts == 0 {
			t.Fatalf("%s: evacuations=%d migrations=%d restarts=%d; the rig must evacuate, "+
				"migrate and restart", r.Guest, r.Evacuations, r.Migrations, r.Restarts)
		}
		if len(ra.Attribution) == 0 {
			t.Fatalf("%s: attribution on but no profiles", r.Guest)
		}
		if ring.Total() != teed.Total() || ring.Dropped() != teed.Dropped() {
			t.Fatalf("%s: tracer-only total=%d dropped=%d, with attribution total=%d dropped=%d",
				r.Guest, ring.Total(), ring.Dropped(), teed.Total(), teed.Dropped())
		}
		a, b := ring.Events(), teed.Events()
		if len(a) != len(b) {
			t.Fatalf("%s: %d events tracer-only, %d with attribution", r.Guest, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: event %d differs:\ntracer-only      %+v\nwith attribution %+v", r.Guest, i, a[i], b[i])
			}
		}
	}
}
