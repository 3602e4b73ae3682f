package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"vsched/internal/faults"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// fastRecovery is a retry policy scaled to millisecond test horizons (the
// defaults are sized for 48-hour fleet runs).
func fastRecovery() faults.RecoveryConfig {
	return faults.RecoveryConfig{
		Enabled:     true,
		MaxRetries:  5,
		BaseBackoff: 50 * sim.Millisecond,
		MaxBackoff:  200 * sim.Millisecond,
	}
}

// TestFleetCrashRecovery: a mid-run host crash kills its residents; without
// recovery they are terminally lost, with recovery they restart elsewhere and
// produce strictly more work. Conservation is enforced by collect (it panics
// on imbalance), so merely finishing the runs asserts the ledger.
func TestFleetCrashRecovery(t *testing.T) {
	sched := &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(600 * sim.Millisecond), Host: 0, Kind: faults.Crash,
			Duration: 1000 * sim.Millisecond},
	}}
	mk := func(rcv faults.RecoveryConfig) *Result {
		cfg := testConfig(7, FirstFit{}, false)
		cfg.Faults = sched
		cfg.Recovery = rcv
		return New(cfg).Run()
	}
	base := mk(faults.RecoveryConfig{})
	if base.Crashes != 1 || base.Killed == 0 {
		t.Fatalf("crashes=%d killed=%d, want 1/>0", base.Crashes, base.Killed)
	}
	if base.Lost != base.Killed || base.Restarts != 0 {
		t.Fatalf("no-recovery lost=%d restarts=%d, want killed=%d lost, 0 restarts",
			base.Lost, base.Restarts, base.Killed)
	}

	res := mk(fastRecovery())
	if res.Killed != base.Killed {
		t.Fatalf("recovery changed the kill count: %d vs %d (pre-crash state must match)",
			res.Killed, base.Killed)
	}
	if res.Restarts == 0 {
		t.Fatal("recovery produced no restarts")
	}
	if res.Ops <= base.Ops {
		t.Fatalf("recovery ops %d not better than no-recovery %d", res.Ops, base.Ops)
	}
	if res.Availability >= 1 || res.Availability <= 0 {
		t.Fatalf("availability %v, want in (0,1) after an outage", res.Availability)
	}
	if res.MTTRMean <= 0 || res.MTTRMax < res.MTTRMean {
		t.Fatalf("bad MTTR stats: mean %v max %v", res.MTTRMean, res.MTTRMax)
	}

	again := mk(fastRecovery())
	if res.Events != again.Events || res.Ops != again.Ops || res.Steal != again.Steal ||
		res.Restarts != again.Restarts || res.Lost != again.Lost {
		t.Fatalf("faulted rerun diverged:\n%+v\nvs\n%+v", res, again)
	}
}

// TestFleetStallFreezes: a stall blocks every resident entity for its
// duration — less work gets done, nobody dies, and the VMs resume after.
func TestFleetStallFreezes(t *testing.T) {
	bt := VMType{Name: "b", VCPUs: 2, BatchWork: sim.Millisecond}
	mk := func(sched *faults.Schedule) *Result {
		return New(Config{
			Seed: 3, Hosts: 1, HostConfig: testHostConfig(), Overcommit: 2.0,
			Policy: FirstFit{},
			Arrivals: []Arrival{
				{ID: 0, Type: bt, At: 0},
				{ID: 1, Type: bt, At: 0},
			},
			Horizon: 2000 * sim.Millisecond,
			Faults:  sched,
		}).Run()
	}
	clean := mk(nil)
	res := mk(&faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(500 * sim.Millisecond), Host: 0, Kind: faults.Stall,
			Duration: 500 * sim.Millisecond},
	}})
	if res.Stalls != 1 || res.Killed != 0 || res.Lost != 0 {
		t.Fatalf("stalls=%d killed=%d lost=%d, want 1/0/0", res.Stalls, res.Killed, res.Lost)
	}
	if res.Ops >= clean.Ops {
		t.Fatalf("stalled ops %d not below clean %d", res.Ops, clean.Ops)
	}
	if res.Ops == 0 {
		t.Fatal("stall killed all progress; VMs must resume after the window")
	}
	if res.Departed != 0 || res.Placed != 2 {
		t.Fatalf("departed=%d placed=%d, want 0/2 (pinned VMs survive)", res.Departed, res.Placed)
	}
}

// TestFleetBrownoutEvacuation: a brownout shrinks the host below its
// commitment and recovery live-migrates the newest VM off until it fits.
func TestFleetBrownoutEvacuation(t *testing.T) {
	bt := VMType{Name: "b", VCPUs: 2, BatchWork: sim.Millisecond}
	cfg := Config{
		Seed: 5, Hosts: 2, HostConfig: testHostConfig(), Overcommit: 2.0,
		Policy: FirstFit{},
		Arrivals: []Arrival{
			{ID: 0, Type: bt, At: 0},
			{ID: 1, Type: bt, At: 0},
			{ID: 2, Type: bt, At: 0},
		},
		Horizon:   1500 * sim.Millisecond,
		Migration: MigrationConfig{Downtime: 5 * sim.Millisecond},
		Faults: &faults.Schedule{Seed: 1, Events: []faults.Event{
			{At: sim.Time(0).Add(500 * sim.Millisecond), Host: 0, Kind: faults.Brownout,
				Duration: 500 * sim.Millisecond, Factor: 0.5},
		}},
		Recovery: fastRecovery(),
	}
	f := New(cfg)
	res := f.Run()
	if res.Brownouts != 1 || res.Evacuations != 1 || res.EvacFailures != 0 {
		t.Fatalf("brownouts=%d evacuations=%d failures=%d, want 1/1/0",
			res.Brownouts, res.Evacuations, res.EvacFailures)
	}
	if res.Killed != 0 || res.Lost != 0 {
		t.Fatalf("killed=%d lost=%d, want 0/0 (brownouts don't kill)", res.Killed, res.Lost)
	}
	if res.Migrations < res.Evacuations {
		t.Fatalf("evacuations (%d) must be counted in migrations (%d)",
			res.Evacuations, res.Migrations)
	}
	// The evacuee's entities must really live on host 1's threads.
	moved := 0
	for _, vm := range f.vms {
		if vm.hostIdx != 1 {
			continue
		}
		moved++
		hs := f.hosts[1]
		for i, v := range vm.gvm.VCPUs() {
			if v.Entity().Thread() != hs.h.Thread(vm.threads[i]) {
				t.Fatalf("%s vCPU %d entity on wrong thread after evacuation", vm.name, i)
			}
		}
	}
	if moved != 1 {
		t.Fatalf("%d VMs on the evacuation target, want 1", moved)
	}
}

// TestMigrationCooldownStopsPingPong reproduces the hotspot flip: the steal
// EMA peak moves from host 0 to host 1 between two controller passes, and
// without a cooldown the controller shuttles the same VM straight back.
func TestMigrationCooldownStopsPingPong(t *testing.T) {
	bt := VMType{Name: "b", VCPUs: 2, BatchWork: sim.Millisecond}
	mk := func(cool sim.Duration) *Fleet {
		f := New(Config{
			Seed: 1, Hosts: 2, HostConfig: testHostConfig(), Overcommit: 2.0,
			Policy:  FirstFit{},
			Horizon: 300 * sim.Millisecond,
			Migration: MigrationConfig{
				MinSteal: 0.05, Margin: 0.02,
				Downtime: sim.Millisecond, Cooldown: cool,
			},
		})
		f.eng.At(0, func() {
			f.arrive(Arrival{ID: 0, Type: bt, At: 0})
			f.arrive(Arrival{ID: 1, Type: bt, At: 0})
		})
		flip := func(hot int) func() {
			return func() {
				f.hosts[hot].stealEMA, f.hosts[1-hot].stealEMA = 0.5, 0
				f.migrateOnce()
			}
		}
		f.eng.At(sim.Time(0).Add(100*sim.Millisecond), flip(0))
		f.eng.At(sim.Time(0).Add(200*sim.Millisecond), flip(1))
		f.eng.RunFor(300 * sim.Millisecond)
		return f
	}
	if got := mk(0).migrations; got != 2 {
		t.Fatalf("without cooldown: %d migrations, want 2 (the ping-pong)", got)
	}
	if got := mk(300 * sim.Millisecond).migrations; got != 1 {
		t.Fatalf("with cooldown: %d migrations, want 1 (return trip damped)", got)
	}
}

// TestMigrationWhileExiting: a VM departs inside its stop-and-copy window.
// The pending wake must not resurrect it — entities stay blocked, occupancy
// stays released, and the departure counts exactly once.
func TestMigrationWhileExiting(t *testing.T) {
	bt := VMType{Name: "b", VCPUs: 2, BatchWork: sim.Millisecond}
	f := New(Config{
		Seed: 1, Hosts: 2, HostConfig: testHostConfig(), Overcommit: 2.0,
		Policy:    FirstFit{},
		Horizon:   100 * sim.Millisecond,
		Migration: MigrationConfig{Downtime: 20 * sim.Millisecond},
	})
	f.eng.At(0, func() { f.arrive(Arrival{ID: 0, Type: bt, At: 0}) })
	f.eng.At(sim.Time(0).Add(10*sim.Millisecond), func() { f.moveVM(f.vms[0], 1) })
	f.eng.At(sim.Time(0).Add(15*sim.Millisecond), func() { f.depart(f.vms[0]) })
	f.eng.RunFor(100 * sim.Millisecond)
	vm := f.vms[0]
	if vm.alive || f.departed != 1 || f.migrations != 1 {
		t.Fatalf("alive=%v departed=%d migrations=%d, want false/1/1",
			vm.alive, f.departed, f.migrations)
	}
	for _, hs := range f.hosts {
		if hs.committed != 0 || len(hs.vms) != 0 {
			t.Fatalf("host %d still holds committed=%d vms=%d after exit",
				hs.index, hs.committed, len(hs.vms))
		}
	}
	// The downtime-end wake fired after the depart and must have left the
	// blocked entities alone.
	for i, v := range vm.gvm.VCPUs() {
		if v.Entity().State() != host.Blocked {
			t.Fatalf("vCPU %d woke after its VM exited: state %v", i, v.Entity().State())
		}
	}
}

// TestFleetFaultShardedMatchesSerial: micro cells with the fault plane active
// still shard with results identical to a serial run.
func TestFleetFaultShardedMatchesSerial(t *testing.T) {
	sched := &faults.Schedule{Seed: 9, Events: []faults.Event{
		{At: sim.Time(0).Add(400 * sim.Millisecond), Host: 0, Kind: faults.Crash,
			Duration: 800 * sim.Millisecond},
		{At: sim.Time(0).Add(700 * sim.Millisecond), Host: 1, Kind: faults.Brownout,
			Duration: 600 * sim.Millisecond, Factor: 0.5},
		{At: sim.Time(0).Add(900 * sim.Millisecond), Host: 2, Kind: faults.Stall,
			Duration: 300 * sim.Millisecond},
	}}
	var cfgs []Config
	for _, pol := range []Policy{FirstFit{}, StealAware{}} {
		cfg := testConfig(42, pol, false)
		cfg.Faults = sched
		cfg.Recovery = fastRecovery()
		cfgs = append(cfgs, cfg)
	}
	serial := RunAll(cfgs, 1, nil)
	parallel := RunAll(cfgs, 4, nil)
	for i := range cfgs {
		s, p := serial[i], parallel[i]
		if s.Ops != p.Ops || s.Steal != p.Steal || s.Events != p.Events ||
			s.Killed != p.Killed || s.Restarts != p.Restarts || s.Lost != p.Lost ||
			s.Evacuations != p.Evacuations || s.Availability != p.Availability {
			t.Fatalf("faulted cell %d differs between serial and sharded runs:\n%+v\nvs\n%+v",
				i, s, p)
		}
		if s.Killed == 0 {
			t.Fatalf("cell %d: crash killed nothing; rig too quiet", i)
		}
	}
}

// microPinned holds digests of micro-tier fault outcomes, recorded before the
// two fleet tiers' fault and recovery bookkeeping moved into one shared core.
// Any digest moving means simulated output changed.
var microPinned = map[string]string{
	"seed1/first-fit/norecovery":    "e719c9bd805f4340",
	"seed1/first-fit/recovery":      "8f2b8e7c9a86ed49",
	"seed1/first-fit/tight":         "0747f76fc746fe34",
	"seed1/steal-aware/norecovery":  "607d36265a492f46",
	"seed1/steal-aware/recovery":    "de6794f6ec1b59a3",
	"seed1/steal-aware/tight":       "b3b9f247004f6289",
	"seed7/first-fit/norecovery":    "1f70917a615b221f",
	"seed7/first-fit/recovery":      "b3101f5af4604c2f",
	"seed7/first-fit/tight":         "3b1fd901e7044e75",
	"seed7/steal-aware/norecovery":  "560d124ce95c8b4d",
	"seed7/steal-aware/recovery":    "a9adf07eedbbffc6",
	"seed7/steal-aware/tight":       "335090354934c844",
	"seed42/first-fit/norecovery":   "9443d70b4fb9f143",
	"seed42/first-fit/recovery":     "a807ace586c42f4d",
	"seed42/first-fit/tight":        "554d3459cb983d93",
	"seed42/steal-aware/norecovery": "bfb2b68b5f512227",
	"seed42/steal-aware/recovery":   "8cb6a13def19539e",
	"seed42/steal-aware/tight":      "2ffb7ceecd3fee99",
}

// TestMicroFaultOutcomesPinned runs small micro cells through crashes,
// brownouts (with failing evacuations) and a stall, with recovery off, on,
// and on with a one-slot queue and a single retry, and compares a digest of
// every outcome field, the Availability and MTTR float bits included, with
// the pinned value.
func TestMicroFaultOutcomesPinned(t *testing.T) {
	at := func(ms int) sim.Time { return sim.Time(0).Add(sim.Duration(ms) * sim.Millisecond) }
	dur := func(ms int) sim.Duration { return sim.Duration(ms) * sim.Millisecond }
	sched := &faults.Schedule{Seed: 3, MigFailProb: 0.5, Events: []faults.Event{
		{At: at(400), Host: 0, Kind: faults.Crash, Duration: dur(800)},
		{At: at(700), Host: 1, Kind: faults.Brownout, Duration: dur(600), Factor: 0.5},
		{At: at(900), Host: 2, Kind: faults.Stall, Duration: dur(300)},
		{At: at(1300), Host: 3, Kind: faults.Crash, Duration: dur(1500)},
		{At: at(1600), Host: 2, Kind: faults.Brownout, Duration: dur(400), Factor: 0.25},
		{At: at(2480), Host: 1, Kind: faults.Crash, Duration: dur(300)},
	}}
	tight := fastRecovery()
	tight.QueueCap, tight.MaxRetries = 1, 1
	modes := []struct {
		name string
		rcv  faults.RecoveryConfig
	}{
		{"norecovery", faults.RecoveryConfig{}},
		{"recovery", fastRecovery()},
		{"tight", tight},
	}
	for _, seed := range []int64{1, 7, 42} {
		for _, pol := range []Policy{FirstFit{}, StealAware{}} {
			for _, mode := range modes {
				cfg := testConfig(seed, pol, false)
				cfg.Faults, cfg.Recovery = sched, mode.rcv
				r := New(cfg).Run()
				out := fmt.Sprintf("placed=%d rejected=%d departed=%d migrations=%d ops=%d steal=%d "+
					"events=%d p50=%d p95=%d crashes=%d brownouts=%d stalls=%d killed=%d restarts=%d "+
					"lost=%d evacuations=%d evacfailures=%d pending=%d availability=%x mttr=%x/%x",
					r.Placed, r.Rejected, r.Departed, r.Migrations, r.Ops, r.Steal,
					r.Events, r.E2E.P50(), r.E2E.P95(), r.Crashes, r.Brownouts, r.Stalls, r.Killed, r.Restarts,
					r.Lost, r.Evacuations, r.EvacFailures, r.PendingAtEnd,
					math.Float64bits(r.Availability), math.Float64bits(r.MTTRMean), math.Float64bits(r.MTTRMax))
				key := fmt.Sprintf("seed%d/%s/%s", seed, pol.Name(), mode.name)
				got := SnapshotDigest([]byte(out))
				want, ok := microPinned[key]
				if !ok {
					t.Errorf("%q: %q, // unpinned: %s", key, got, out)
					continue
				}
				if got != want {
					t.Errorf("%s: digest %s, pinned %s (%s)", key, got, want, out)
				}
			}
		}
	}
}

// censusPinned is the digest of the sim.* series (the engine's event-queue
// census: pending, wheel residency per level, occupied slots, overflow,
// ready and free-pool depths) of the rig below, recorded before the engine
// moved to an index arena. The census is part of fleetobs' telemetry bytes,
// so any queue rewrite must leave every sample of it unchanged.
const censusPinned = "ec1a000e93badc12623487664a5034ccb2dda2485567cb61cc0ad07dc4ae6b2a"

// TestEngineCensusPinned runs a small vSched micro fleet through crashes,
// a brownout and a stall with recovery and telemetry on, and compares a
// sha256 of every sim.* series in the deterministic snapshot, raw samples
// included, with the pinned value.
func TestEngineCensusPinned(t *testing.T) {
	at := func(ms int) sim.Time { return sim.Time(0).Add(sim.Duration(ms) * sim.Millisecond) }
	dur := func(ms int) sim.Duration { return sim.Duration(ms) * sim.Millisecond }
	cfg := testConfig(42, StealAware{}, true)
	cfg.Faults = &faults.Schedule{Seed: 3, MigFailProb: 0.5, Events: []faults.Event{
		{At: at(400), Host: 0, Kind: faults.Crash, Duration: dur(800)},
		{At: at(700), Host: 1, Kind: faults.Brownout, Duration: dur(600), Factor: 0.5},
		{At: at(900), Host: 2, Kind: faults.Stall, Duration: dur(300)},
		{At: at(1300), Host: 3, Kind: faults.Crash, Duration: dur(1500)},
	}}
	cfg.Recovery = fastRecovery()
	cfg.Telemetry = &telemetry.Config{Interval: 5 * sim.Millisecond}
	r := New(cfg).Run()
	h := sha256.New()
	n := 0
	for _, s := range r.Telemetry.Snapshot(false).Series {
		if !strings.HasPrefix(s.Name, "sim.") {
			continue
		}
		n++
		fmt.Fprintf(h, "%s count=%d min=%x max=%x mean=%x last=%x raw_n=%d raw=%x\n",
			s.Name, s.Count, math.Float64bits(s.Min), math.Float64bits(s.Max),
			math.Float64bits(s.Mean), math.Float64bits(s.Last), s.RawN, s.Raw)
	}
	if n != 10 {
		t.Fatalf("snapshot holds %d sim.* series, want 10", n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != censusPinned {
		t.Errorf("engine census digest %s, pinned %s", got, censusPinned)
	}
}
