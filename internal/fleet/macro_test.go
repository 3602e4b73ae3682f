package fleet

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// macroTestTrace generates a small but non-trivial cloud trace: a few hours,
// a few dozen heterogeneous hosts, a few thousand VM lifetimes.
func macroTestTrace(seed int64) cloudgen.Trace {
	cfg := cloudgen.DefaultConfig()
	cfg.Horizon = 6 * cloudgen.Hour
	cfg.BaseRate = 300
	cfg.Hosts = []cloudgen.HostClass{
		{Name: "std", Count: 16, Cores: 8, SMT: 2, SpeedFactor: 1.0},
		{Name: "big", Count: 8, Cores: 16, SMT: 2, SpeedFactor: 1.15},
		{Name: "small", Count: 8, Cores: 8, SMT: 1, SpeedFactor: 0.9},
	}
	return cloudgen.Generate(seed, cfg)
}

func TestMacroDeterministic(t *testing.T) {
	trace := macroTestTrace(7)
	a := RunMacro(MacroConfig{Trace: trace, Policy: StealAware{}})
	b := RunMacro(MacroConfig{Trace: trace, Policy: StealAware{}})
	if !bytes.Equal(a.Snapshot, b.Snapshot) {
		t.Fatalf("two identical runs diverged: %s vs %s",
			SnapshotDigest(a.Snapshot), SnapshotDigest(b.Snapshot))
	}
	if len(a.Snapshot) != cap(a.Snapshot) {
		t.Fatalf("snapshot is %d bytes but was sized for %d", len(a.Snapshot), cap(a.Snapshot))
	}
}

// TestMacroTelemetryInert: attaching a telemetry recorder moves no bit of
// final state, on a clean run and on a faulted run with recovery (retries,
// restarts and evacuations all happen while the recorder samples).
func TestMacroTelemetryInert(t *testing.T) {
	trace := macroTestTrace(11)
	storm := faults.Generate(11, len(trace.Hosts), trace.Horizon, faults.Config{
		CrashMTBF:    20 * cloudgen.Hour,
		BrownoutMTBF: 10 * cloudgen.Hour,
		StallMTBF:    5 * cloudgen.Hour,
		MigFailProb:  0.2,
	})
	faulted := MacroConfig{
		Trace: trace, Policy: StealAware{}, Faults: &storm,
		Recovery: faults.RecoveryConfig{Enabled: true},
	}
	bareF := RunMacro(faulted)
	faulted.Telemetry = &telemetry.Config{Interval: 30 * sim.Second}
	observedF := RunMacro(faulted)
	if !bytes.Equal(bareF.Snapshot, observedF.Snapshot) {
		t.Fatalf("attaching telemetry changed a faulted run: %s vs %s",
			SnapshotDigest(bareF.Snapshot), SnapshotDigest(observedF.Snapshot))
	}
	if bareF.Crashes == 0 || bareF.Restarts == 0 || bareF.Evacuations == 0 {
		t.Fatalf("storm too quiet: crashes=%d restarts=%d evacuations=%d",
			bareF.Crashes, bareF.Restarts, bareF.Evacuations)
	}

	bare := RunMacro(MacroConfig{Trace: trace, Policy: LeastLoaded{}})
	observed := RunMacro(MacroConfig{
		Trace: trace, Policy: LeastLoaded{},
		Telemetry: &telemetry.Config{Interval: 30 * sim.Second},
	})
	if !bytes.Equal(bare.Snapshot, observed.Snapshot) {
		t.Fatal("attaching telemetry changed the simulation outcome")
	}
	if observed.Telemetry == nil {
		t.Fatal("telemetry recorder not attached")
	}
	snap := observed.Telemetry.Snapshot(false)
	found := false
	for _, s := range snap.Series {
		if s.Name == "fleet.macro.util_mean" {
			found = true
		}
	}
	if !found {
		t.Fatal("fleet.macro.util_mean series missing from telemetry snapshot")
	}
}

func TestMacroAccounting(t *testing.T) {
	trace := macroTestTrace(3)
	res := RunMacro(MacroConfig{Trace: trace, Policy: LeastLoaded{}})
	if res.Placed+res.Rejected != res.Arrivals {
		t.Fatalf("placed %d + rejected %d != arrivals %d", res.Placed, res.Rejected, res.Arrivals)
	}
	if res.Lifetimes > res.Placed {
		t.Fatalf("lifetimes %d > placed %d", res.Lifetimes, res.Placed)
	}
	if res.DIMean < 0 || res.DIMax < res.DIMean {
		t.Fatalf("bad DI stats: mean %f max %f", res.DIMean, res.DIMax)
	}
	if res.P95Steal < 0 || res.P95Steal > 1 {
		t.Fatalf("p95 steal %f out of range", res.P95Steal)
	}
	if res.Makespan > sim.Time(0).Add(trace.Horizon) {
		t.Fatalf("makespan %v past horizon %v", res.Makespan, trace.Horizon)
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

// TestMacroContentionModel pins the analytic model on a hand-built trace:
// one 4-thread host, two 4-vCPU batch VMs with 100s budgets. Demand 8 on 4
// threads gives rho=0.5, so each VM finishes its budget at exactly t=200s
// with a steal fraction of exactly 0.5.
func TestMacroContentionModel(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 300 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 4, Class: cloudgen.Batch, Demand: 1.0, Work: 100 * sim.Second},
			{ID: 1, At: 0, VCPUs: 4, Class: cloudgen.Batch, Demand: 1.0, Work: 100 * sim.Second},
		},
	}
	res := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}, Overcommit: 2.0})
	if res.Placed != 2 || res.Rejected != 0 {
		t.Fatalf("placed %d rejected %d, want 2/0", res.Placed, res.Rejected)
	}
	want := sim.Time(0).Add(200 * sim.Second)
	if res.Makespan != want {
		t.Fatalf("makespan %v, want %v", res.Makespan, want)
	}
	if res.P95Steal != 0.5 {
		t.Fatalf("p95 steal %f, want exactly 0.5", res.P95Steal)
	}
	if res.Lifetimes != 2 {
		t.Fatalf("lifetimes %d, want 2", res.Lifetimes)
	}
}

// TestMacroRejection: a VM larger than every host's admission bound must be
// rejected without disturbing anything else.
func TestMacroRejection(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 120 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 64, Class: cloudgen.Service, Demand: 0.3, Lifetime: 60 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.3, Lifetime: 60 * sim.Second},
		},
	}
	res := RunMacro(MacroConfig{Trace: trace, Policy: LeastLoaded{}, Overcommit: 2.0})
	if res.Rejected != 1 || res.Placed != 1 {
		t.Fatalf("placed %d rejected %d, want 1/1", res.Placed, res.Rejected)
	}
	if res.Lifetimes != 1 {
		t.Fatalf("lifetimes %d, want 1", res.Lifetimes)
	}
	// An uncontended service VM accrues zero steal.
	if res.P95Steal != 0 {
		t.Fatalf("p95 steal %f, want 0", res.P95Steal)
	}
}

// TestMacroZeroLifetime: a service VM due at the very boundary that admits it
// leaves at the next boundary, not never.
func TestMacroZeroLifetime(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 300 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5},
			{ID: 1, At: sim.Time(0).Add(70 * sim.Second), VCPUs: 2, Class: cloudgen.Service, Demand: 0.5},
		},
	}
	res := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
	if res.Lifetimes != 2 || res.RunningAtEnd != 0 {
		t.Fatalf("lifetimes=%d running=%d, want 2/0", res.Lifetimes, res.RunningAtEnd)
	}
}

// faultTrace2 is a hand-built two-host trace for fault mechanics: one service
// VM and one batch VM, both FirstFit-placed on host 0.
func faultTrace2(horizon sim.Duration) cloudgen.Trace {
	return cloudgen.Trace{
		Seed:    1,
		Horizon: horizon,
		Hosts: []cloudgen.HostSpec{
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
		},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 600 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Batch, Demand: 1.0, Work: 300 * sim.Second},
		},
	}
}

func crashAt90() *faults.Schedule {
	return &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(90 * sim.Second), Host: 0, Kind: faults.Crash, Duration: 600 * sim.Second},
	}}
}

// TestMacroCrashNoRecovery: without recovery a crash is terminal for every
// resident VM — the graceful-degradation baseline. Lost batch progress is
// accounted exactly and the conservation ledger still balances (result()
// panics if not).
func TestMacroCrashNoRecovery(t *testing.T) {
	res := RunMacro(MacroConfig{
		Trace:  faultTrace2(1200 * sim.Second),
		Policy: FirstFit{},
		Faults: crashAt90(),
	})
	if res.Crashes != 1 || res.Killed != 2 || res.Lost != 2 {
		t.Fatalf("crashes=%d killed=%d lost=%d, want 1/2/2", res.Crashes, res.Killed, res.Lost)
	}
	if res.Lifetimes != 0 || res.Rejected != 0 || res.RunningAtEnd != 0 || res.PendingAtEnd != 0 {
		t.Fatalf("lifetimes=%d rejected=%d running=%d pending=%d, want all 0",
			res.Lifetimes, res.Rejected, res.RunningAtEnd, res.PendingAtEnd)
	}
	// The crash lands on the t=60 boundary; the batch VM ran [0,60) at rho=1,
	// so exactly 60 per-vCPU seconds x 2 vCPUs of progress were destroyed.
	want := 120.0 / 3600
	if math.Abs(res.LostVCPUHours-want) > 1e-12 {
		t.Fatalf("lost vCPU-hours %v, want %v", res.LostVCPUHours, want)
	}
	if res.Restarts != 0 || res.Evacuations != 0 {
		t.Fatalf("restarts=%d evacuations=%d without recovery", res.Restarts, res.Evacuations)
	}
}

// TestMacroCrashRecovery: with recovery both victims restart on the surviving
// host after one backoff interval and complete; recovery strictly beats the
// no-recovery baseline, and the availability/MTTR ledger is exact.
func TestMacroCrashRecovery(t *testing.T) {
	trace := faultTrace2(1200 * sim.Second)
	base := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}, Faults: crashAt90()})
	res := RunMacro(MacroConfig{
		Trace:    trace,
		Policy:   FirstFit{},
		Faults:   crashAt90(),
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Killed != 2 || res.Restarts != 2 || res.Lost != 0 {
		t.Fatalf("killed=%d restarts=%d lost=%d, want 2/2/0", res.Killed, res.Restarts, res.Lost)
	}
	if res.Lifetimes != 2 {
		t.Fatalf("lifetimes %d, want 2 (both victims recovered)", res.Lifetimes)
	}
	if res.Lifetimes <= base.Lifetimes {
		t.Fatalf("recovery lifetimes %d not better than baseline %d", res.Lifetimes, base.Lifetimes)
	}
	// Kill at the t=60 boundary, restart at t=60+Backoff(1)=120: TTR is
	// exactly one default backoff.
	if res.MTTRMean != 60 || res.MTTRMax != 60 {
		t.Fatalf("MTTR mean=%v max=%v, want exactly 60s", res.MTTRMean, res.MTTRMax)
	}
	if res.Availability >= 1 || res.Availability <= 0 {
		t.Fatalf("availability %v, want in (0,1) after an outage", res.Availability)
	}
	if res.DownVCPUHours != 240.0/3600 {
		t.Fatalf("down vCPU-hours %v, want 240s x 2 VMs worth", res.DownVCPUHours)
	}
}

// TestMacroBrownoutEvacuation: a brownout shrinks effective capacity below the
// host's commitment, and recovery evacuates the newest VM through the policy
// until the host fits again.
func TestMacroBrownoutEvacuation(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 900 * sim.Second,
		Hosts: []cloudgen.HostSpec{
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
		},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 2, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
		},
	}
	sched := &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(70 * sim.Second), Host: 0, Kind: faults.Brownout,
			Duration: 300 * sim.Second, Factor: 0.5},
	}}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{}, Faults: sched,
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Brownouts != 1 || res.Evacuations != 1 || res.EvacFailures != 0 {
		t.Fatalf("brownouts=%d evacuations=%d failures=%d, want 1/1/0",
			res.Brownouts, res.Evacuations, res.EvacFailures)
	}
	if res.Killed != 0 || res.Lost != 0 || res.Lifetimes != 3 {
		t.Fatalf("killed=%d lost=%d lifetimes=%d, want 0/0/3", res.Killed, res.Lost, res.Lifetimes)
	}
}

// TestMacroBrownoutGracefulDegradation: with a single host there is nowhere to
// evacuate to — the VMs stay, the overcommit persists, and the squeeze shows
// up as steal rather than as lost VMs.
func TestMacroBrownoutGracefulDegradation(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 900 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 1.0, Lifetime: 500 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 1.0, Lifetime: 500 * sim.Second},
			{ID: 2, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 1.0, Lifetime: 500 * sim.Second},
		},
	}
	sched := &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(70 * sim.Second), Host: 0, Kind: faults.Brownout,
			Duration: 300 * sim.Second, Factor: 0.5},
	}}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{}, Faults: sched,
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Evacuations != 0 {
		t.Fatalf("evacuations %d with a single host", res.Evacuations)
	}
	if res.Lifetimes != 3 || res.Lost != 0 {
		t.Fatalf("lifetimes=%d lost=%d, want 3/0 (degrade, don't drop)", res.Lifetimes, res.Lost)
	}
	if res.TotalStealHours <= 0 {
		t.Fatal("brownout squeeze produced no steal")
	}
}

// TestMacroStallFreezes: a one-epoch stall contributes pure steal — no
// progress, no kills — and stretches the batch makespan by exactly the stall.
func TestMacroStallFreezes(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 600 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Batch, Demand: 1.0, Work: 120 * sim.Second},
		},
	}
	clean := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
	sched := &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(60 * sim.Second), Host: 0, Kind: faults.Stall, Duration: 60 * sim.Second},
	}}
	res := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}, Faults: sched})
	if res.Stalls != 1 || res.Killed != 0 || res.Lost != 0 {
		t.Fatalf("stalls=%d killed=%d lost=%d, want 1/0/0", res.Stalls, res.Killed, res.Lost)
	}
	if res.Lifetimes != 1 {
		t.Fatalf("lifetimes %d, want 1", res.Lifetimes)
	}
	if got, want := res.Makespan, clean.Makespan.Add(60*sim.Second); got != want {
		t.Fatalf("stalled makespan %v, want clean %v + 60s = %v", got, clean.Makespan, want)
	}
	// Frozen epoch: 2 vCPUs x demand 1.0 x 60s of pure steal, 240 vCPU-s
	// served across the two productive epochs -> steal fraction exactly 1/3.
	if res.P95Steal != 1.0/3.0 {
		t.Fatalf("steal fraction %v, want exactly 1/3", res.P95Steal)
	}
}

// TestMacroEvacFailure: the deterministic migration-failure law aborts
// evacuation attempts; the fault plane degrades gracefully (nothing is lost)
// and the failures are counted.
func TestMacroEvacFailure(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 900 * sim.Second,
		Hosts: []cloudgen.HostSpec{
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
		},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 2, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
		},
	}
	// Find a seed whose first migration attempt fails under p=0.99: the law is
	// a pure function of (seed, attempt), so scan rather than guess.
	var sched *faults.Schedule
	for seed := int64(1); seed < 64; seed++ {
		s := &faults.Schedule{Seed: seed, MigFailProb: 0.99, Events: []faults.Event{
			{At: sim.Time(0).Add(70 * sim.Second), Host: 0, Kind: faults.Brownout,
				Duration: 300 * sim.Second, Factor: 0.5},
		}}
		if s.MigrationFails(1) {
			sched = s
			break
		}
	}
	if sched == nil {
		t.Fatal("no seed in [1,64) fails its first migration at p=0.99")
	}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{}, Faults: sched,
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.EvacFailures == 0 {
		t.Fatal("expected at least one evacuation failure")
	}
	if res.Lost != 0 || res.Killed != 0 || res.Lifetimes != 3 {
		t.Fatalf("lost=%d killed=%d lifetimes=%d, want 0/0/3", res.Lost, res.Killed, res.Lifetimes)
	}
}

// TestMacroRejectionRetry: with recovery enabled an admission rejection is not
// terminal — the VM waits in the retry queue and lands once capacity frees up,
// conserving demand instead of dropping it.
func TestMacroRejectionRetry(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 600 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 6, Class: cloudgen.Service, Demand: 0.3, Lifetime: 100 * sim.Second},
			{ID: 1, At: sim.Time(0).Add(10 * sim.Second), VCPUs: 6, Class: cloudgen.Service, Demand: 0.3, Lifetime: 100 * sim.Second},
		},
	}
	base := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
	if base.Rejected != 1 || base.Lifetimes != 1 {
		t.Fatalf("baseline rejected=%d lifetimes=%d, want 1/1", base.Rejected, base.Lifetimes)
	}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{},
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Rejected != 0 || res.Lifetimes != 2 || res.Placed != 2 {
		t.Fatalf("rejected=%d lifetimes=%d placed=%d, want 0/2/2", res.Rejected, res.Lifetimes, res.Placed)
	}
	if res.Restarts != 0 {
		t.Fatalf("admission retries counted as restarts: %d", res.Restarts)
	}
}

// TestMacroRetryExhaustion: a VM that can never fit burns its bounded retry
// budget and lands as a terminal rejection — visible in the ledger and the
// snapshot, never silently dropped.
func TestMacroRetryExhaustion(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 1200 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 64, Class: cloudgen.Service, Demand: 0.3, Lifetime: 60 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.3, Lifetime: 90 * sim.Second},
		},
	}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{},
		Recovery: faults.RecoveryConfig{Enabled: true, MaxRetries: 2},
	})
	if res.Rejected != 1 || res.PendingAtEnd != 0 {
		t.Fatalf("rejected=%d pending=%d, want 1/0 after retry exhaustion", res.Rejected, res.PendingAtEnd)
	}
	if res.Lifetimes != 1 {
		t.Fatalf("lifetimes %d, want 1", res.Lifetimes)
	}
}

// macroPinned holds snapshot digests recorded before the macro tier's
// departure queue became an epoch-bucketed calendar and the boundary rescore
// a bulk index rebuild. Both are pure performance changes; any digest moving
// means simulated output changed.
var macroPinned = map[string]string{
	"first-fit/clean/6h0m0s":                "477a22d8ebe6c0ab",
	"first-fit/clean/6h0m17s":               "620838f5974dd0f3",
	"first-fit/storm-recovery/6h0m0s":       "203986c733efc0cb",
	"first-fit/storm-recovery/6h0m17s":      "e49a18c73b058126",
	"first-fit/storm-tightqueue/6h0m0s":     "8506f7d8e32e828c",
	"first-fit/storm-tightqueue/6h0m17s":    "568b351f2977e091",
	"first-fit/crash-norecovery/6h0m0s":     "a06aa40ca746d1db",
	"first-fit/crash-norecovery/6h0m17s":    "7d97c49138c3c9b3",
	"least-loaded/clean/6h0m0s":             "66e947cacd3bb061",
	"least-loaded/clean/6h0m17s":            "a7b6481a68d7e17b",
	"least-loaded/storm-recovery/6h0m0s":    "85f8acb6965227cd",
	"least-loaded/storm-recovery/6h0m17s":   "5512c6ae34ea518b",
	"least-loaded/storm-tightqueue/6h0m0s":  "b8d958b0ecda1142",
	"least-loaded/storm-tightqueue/6h0m17s": "fc78ac17f50ba148",
	"least-loaded/crash-norecovery/6h0m0s":  "1375b058ec993b3c",
	"least-loaded/crash-norecovery/6h0m17s": "d09be704ad2e634f",
	"steal-aware/clean/6h0m0s":              "c930f681f495a7da",
	"steal-aware/clean/6h0m17s":             "6991b02876a7171e",
	"steal-aware/storm-recovery/6h0m0s":     "9b774ed9274298d0",
	"steal-aware/storm-recovery/6h0m17s":    "5f995f5dcf6469ff",
	"steal-aware/storm-tightqueue/6h0m0s":   "baef373ff986dc6f",
	"steal-aware/storm-tightqueue/6h0m17s":  "2253719aa8bc1ed9",
	"steal-aware/crash-norecovery/6h0m0s":   "fde6a96f35fa0e38",
	"steal-aware/crash-norecovery/6h0m17s":  "5401910c9dde1d7c",
	"batch-restart-at-horizon":              "e8b3729bd275a330",
}

// TestMacroDigestsPinned runs macroTestTrace under every policy, clean and
// under three fault regimes, at the trace horizon and at a
// horizon that is not a multiple of the epoch (the calendar's short final
// bucket), and compares each snapshot digest with the pinned value. A
// hand-built row kills and restarts a batch VM that is still running at the
// odd horizon, so its id sits twice in the final bucket and must depart once.
func TestMacroDigestsPinned(t *testing.T) {
	trace := macroTestTrace(42)
	odd := trace.Horizon + 17*sim.Second
	modes := digestModes(trace, odd)
	check := func(t *testing.T, key string, res *MacroResult) {
		t.Helper()
		got := SnapshotDigest(res.Snapshot)
		want, ok := macroPinned[key]
		if !ok {
			t.Errorf("%q: %q, // unpinned", key, got)
			return
		}
		if got != want {
			t.Errorf("%s: digest %s, pinned %s", key, got, want)
		}
	}
	for _, pol := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		for _, mode := range modes {
			for _, h := range []sim.Duration{trace.Horizon, odd} {
				key := fmt.Sprintf("%s/%s/%s", pol.Name(), mode.name, time.Duration(h))
				check(t, key, RunMacro(MacroConfig{
					Trace: trace, Policy: pol, Horizon: h,
					Faults: mode.faults, Recovery: mode.rcv,
				}))
			}
		}
	}

	// Batch VM 1 is killed at t=60, restarts at t=120 with its full 300s
	// budget and is still running at the 417s horizon: it departs there once.
	// Service VM 0 restarts with 540s left and outlives the horizon.
	res := RunMacro(MacroConfig{
		Trace: faultTrace2(417 * sim.Second), Policy: FirstFit{}, Faults: crashAt90(),
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Killed != 2 || res.Restarts != 2 || res.Lifetimes != 1 || res.RunningAtEnd != 1 {
		t.Fatalf("killed=%d restarts=%d lifetimes=%d running=%d, want 2/2/1/1",
			res.Killed, res.Restarts, res.Lifetimes, res.RunningAtEnd)
	}
	check(t, "batch-restart-at-horizon", res)
}

// digestMode is one fault regime of TestMacroDigestsPinned.
type digestMode struct {
	name   string
	faults *faults.Schedule
	rcv    faults.RecoveryConfig
}

// digestModes returns the pinned fault regimes for trace, with schedules
// generated out to horizon: clean, a fault storm with recovery (default and
// a tight queue), and crashes without recovery.
func digestModes(trace cloudgen.Trace, horizon sim.Duration) []digestMode {
	storm := faults.Generate(42, len(trace.Hosts), horizon, faults.Config{
		CrashMTBF:    20 * cloudgen.Hour,
		BrownoutMTBF: 10 * cloudgen.Hour,
		StallMTBF:    5 * cloudgen.Hour,
		MigFailProb:  0.2,
	})
	crashes := faults.Generate(42, len(trace.Hosts), horizon, faults.Config{CrashMTBF: 10 * cloudgen.Hour})
	return []digestMode{
		{"clean", nil, faults.RecoveryConfig{}},
		{"storm-recovery", &storm, faults.RecoveryConfig{Enabled: true}},
		{"storm-tightqueue", &storm, faults.RecoveryConfig{Enabled: true, QueueCap: 4, MaxRetries: 3}},
		{"crash-norecovery", &crashes, faults.RecoveryConfig{}},
	}
}

// TestMacroFaultShardedMatchesSerial: under a generated fault storm — kills,
// retries, restarts, evacuations, the migration-failure law — the same
// config run twice gives identical bytes, and so does a config that still
// sets the deprecated Shards field, which nothing reads.
func TestMacroFaultShardedMatchesSerial(t *testing.T) {
	trace := macroTestTrace(42)
	sched := faults.Generate(42, len(trace.Hosts), trace.Horizon, faults.Config{
		CrashMTBF:    20 * 3600 * sim.Second,
		BrownoutMTBF: 10 * 3600 * sim.Second,
		StallMTBF:    5 * 3600 * sim.Second,
		MigFailProb:  0.2,
	})
	if len(sched.Events) == 0 {
		t.Fatal("degenerate fault schedule")
	}
	for _, pol := range []Policy{FirstFit{}, StealAware{}} {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			mk := func(shards int) *MacroResult {
				return RunMacro(MacroConfig{
					Trace: trace, Policy: pol, Shards: shards, Faults: &sched,
					Recovery: faults.RecoveryConfig{Enabled: true},
				})
			}
			first := mk(0)
			if first.Crashes == 0 || first.Killed == 0 || first.Restarts == 0 {
				t.Fatalf("storm too quiet: crashes=%d killed=%d restarts=%d",
					first.Crashes, first.Killed, first.Restarts)
			}
			if again := mk(0); !bytes.Equal(first.Snapshot, again.Snapshot) {
				t.Fatalf("two identical faulted runs diverged: %s vs %s",
					SnapshotDigest(first.Snapshot), SnapshotDigest(again.Snapshot))
			}
			if legacy := mk(7); !bytes.Equal(first.Snapshot, legacy.Snapshot) {
				t.Fatalf("setting the ignored Shards field changed the run: %s vs %s",
					SnapshotDigest(first.Snapshot), SnapshotDigest(legacy.Snapshot))
			}
		})
	}
}

// rejectsTraceVM runs RunMacro on a one-host trace whose second VM, id 7,
// is edited by edit, and requires a panic that names VM 7 and contains want.
func rejectsTraceVM(t *testing.T, edit func(*cloudgen.VM), want string) {
	t.Helper()
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 120 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 60 * sim.Second},
			{ID: 7, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 60 * sim.Second},
		},
	}
	edit(&trace.VMs[1])
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "VM 7 ") || !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name VM 7 and its %s", msg, want)
		}
	}()
	RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
}

// TestMacroRejectsBadVCPUs: a trace VM sized outside [1, MaxInt16] is a
// broken trace, not a workload. Zero or a negative size corrupts admission
// accounting and 32768 is past the tier's size bound, so RunMacro refuses
// each one by VM id before simulating anything.
func TestMacroRejectsBadVCPUs(t *testing.T) {
	for _, vcpus := range []int{-1, 0, 32768} {
		t.Run(fmt.Sprint(vcpus), func(t *testing.T) {
			rejectsTraceVM(t, func(v *cloudgen.VM) { v.VCPUs = vcpus }, fmt.Sprintf("%d vCPUs", vcpus))
		})
	}
}

// TestMacroRejectsBadTraceFields: the macro tier reads a VM's demand,
// lifetime, budget and class from the trace whenever it builds the VM's
// record, so a value that would silently corrupt served and steal is refused
// by VM id before simulating anything, one case per check.
func TestMacroRejectsBadTraceFields(t *testing.T) {
	cases := []struct {
		name string
		edit func(*cloudgen.VM)
		want string
	}{
		{"demand-nan", func(v *cloudgen.VM) { v.Demand = math.NaN() }, "demand NaN"},
		{"demand-inf", func(v *cloudgen.VM) { v.Demand = math.Inf(1) }, "demand +Inf"},
		{"demand-negative", func(v *cloudgen.VM) { v.Demand = -0.25 }, "demand -0.25"},
		{"lifetime-negative", func(v *cloudgen.VM) { v.Lifetime = -sim.Second }, "lifetime " + fmt.Sprint(-sim.Second)},
		{"work-negative", func(v *cloudgen.VM) { v.Class, v.Work = cloudgen.Batch, -sim.Second }, "work " + fmt.Sprint(-sim.Second)},
		{"class-unknown", func(v *cloudgen.VM) { v.Class = 2 }, "class 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { rejectsTraceVM(t, c.edit, c.want) })
	}
}

// warmMacro builds a macro cell and runs it through the epoch at mid, so the
// hosts hold a mid-trace resident population.
func warmMacro(cfg MacroConfig, mid sim.Time) *macroSim {
	m := newMacroSim(cfg)
	m.eng.At(0, m.epoch)
	m.eng.Run(mid)
	return m
}

// TestMacroSeqWrapPanics: a host's placement sequence number orders its
// service and batch records against each other, so one that wraps is a
// broken invariant. push hands out the last number and then panics, naming
// the host.
func TestMacroSeqWrapPanics(t *testing.T) {
	m := newMacroSim(MacroConfig{Trace: macroTestTrace(42)})
	m.hosts[3].seq = math.MaxUint32 - 1
	m.push(3, m.resident(0))
	if got := m.hosts[3].seq; got != math.MaxUint32 {
		t.Fatalf("host 3 seq %d after the last push, want %d", got, uint32(math.MaxUint32))
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "host 3 ") || !strings.Contains(msg, "wrapped") {
			t.Fatalf("panic %q does not name host 3 and the wrap", msg)
		}
	}()
	m.push(3, m.resident(1))
}

// TestMacroEpochAllocFree pins the epoch integration at zero heap
// allocations once a run is in steady state: the per-host records and the
// aggregate block are reused.
func TestMacroEpochAllocFree(t *testing.T) {
	trace := macroTestTrace(42)
	mid := sim.Time(0).Add(3 * cloudgen.Hour)
	m := warmMacro(MacroConfig{Trace: trace, Policy: StealAware{}}, mid)
	alive := 0
	for i := range m.hosts {
		alive += m.hosts[i].live()
	}
	if alive == 0 {
		t.Fatal("degenerate warm-up: no live VMs")
	}
	t1 := mid.Add(m.cfg.Epoch)
	if allocs := testing.AllocsPerRun(100, func() { m.integrate(mid, t1) }); allocs != 0 {
		t.Fatalf("integrate allocates %v times per epoch, want 0", allocs)
	}
}

// TestMacroAllocBudget gates the macro tier's memory per trace VM. The
// id-indexed macroVM must stay within 16 bytes (each VM's floats live in its
// host record while live and in its snapshot record otherwise), the service
// and batch host records within 32 and 48, and a first-fit RunMacro over a
// 24 h, 1024-host cloudgen trace (57,750 VMs) must allocate at most 116 bytes
// per trace VM in total. With the 16-byte macroVM and per-class host records
// it allocates 112 B/VM (99 on the 96 h trace vbench runs; 107 and 97 with
// one mixed-class slice per host); the 72-byte macroVM with a snapshot built
// after the run allocated 163 (153).
func TestMacroAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name         string
		size, budget uintptr
	}{
		{"macroVM", unsafe.Sizeof(macroVM{}), 16},
		{"svcRec", unsafe.Sizeof(svcRec{}), 32},
		{"batRec", unsafe.Sizeof(batRec{}), 48},
	} {
		if c.size > c.budget {
			t.Fatalf("%s is %d bytes, budget %d", c.name, c.size, c.budget)
		}
	}
	cfg := cloudgen.DefaultConfig()
	cfg.Horizon = 24 * cloudgen.Hour
	trace := cloudgen.Generate(42, cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
	runtime.ReadMemStats(&after)
	const budget = 116
	if perVM := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(trace.VMs)); perVM > budget {
		t.Fatalf("RunMacro allocates %.1f B per trace VM over %d VMs, budget %d", perVM, len(trace.VMs), budget)
	}
}

// BenchmarkMacroEpoch times the epoch integration alone on the full
// 1024-host cloudgen trace, advanced to its midpoint: ns/host-epoch is the
// cost of one host's contention step (rho, per-VM steal and progress)
// together with its share of the fleet reductions, and ns/resident-epoch
// the same time spread over the live VM records the pass integrates.
func BenchmarkMacroEpoch(b *testing.B) {
	trace := cloudgen.Generate(42, cloudgen.DefaultConfig())
	mid := sim.Time(0).Add(trace.Horizon / 2)
	m := warmMacro(MacroConfig{Trace: trace, Policy: StealAware{}}, mid)
	t1 := mid.Add(m.cfg.Epoch)
	residents := 0
	for i := range m.hosts {
		residents += m.hosts[i].live()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.integrate(mid, t1)
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(b.N*len(m.hosts)), "ns/host-epoch")
	b.ReportMetric(ns/float64(b.N*residents), "ns/resident-epoch")
}

// stormRun is the faulted, recovering run the fused-pass and incremental-
// index tests drive epoch by epoch: crashes, brownouts and stalls with
// recovery on macroTestTrace(42). Service VMs want 0.37 of each vCPU rather
// than the generator's 0.5, so loads are not dyadic and subtracting a
// departed load from a cached sum would round differently from a fold.
func stormRun(pol Policy) MacroConfig {
	trace := macroTestTrace(42)
	for i := range trace.VMs {
		if trace.VMs[i].Class == cloudgen.Service {
			trace.VMs[i].Demand = 0.37
		}
	}
	storm := faults.Generate(42, len(trace.Hosts), trace.Horizon, faults.Config{
		CrashMTBF:    20 * cloudgen.Hour,
		BrownoutMTBF: 10 * cloudgen.Hour,
		StallMTBF:    5 * cloudgen.Hour,
		MigFailProb:  0.2,
	})
	return MacroConfig{
		Trace: trace, Policy: pol, Faults: &storm,
		Recovery: faults.RecoveryConfig{Enabled: true},
	}
}

// TestMacroFusedPassInvariants drives stormRun epoch by epoch. Crashes
// clear hosts, evacuations pop and push records, restarts and departures
// add and remove them; after every epoch each host's placement sequence
// numbers must strictly increase within each class array and never repeat
// across the two, each host's cached demand must equal a fresh left-to-right
// fold over its records merged in sequence order, and the aggregate block
// must equal a separate host-order reduction, bit for bit.
func TestMacroFusedPassInvariants(t *testing.T) {
	m := newMacroSim(stormRun(StealAware{}))
	checkDemand := func(when sim.Time) {
		t.Helper()
		type placed struct {
			seq  uint32
			load float64
		}
		var recs []placed
		for i := range m.hosts {
			h := &m.hosts[i]
			recs = recs[:0]
			for k, r := range h.svc {
				if k > 0 && r.seq <= h.svc[k-1].seq {
					t.Fatalf("t=%v host %d: service seq %d after %d", when, i, r.seq, h.svc[k-1].seq)
				}
				recs = append(recs, placed{r.seq, r.load})
			}
			for k, r := range h.bat {
				if k > 0 && r.seq <= h.bat[k-1].seq {
					t.Fatalf("t=%v host %d: batch seq %d after %d", when, i, r.seq, h.bat[k-1].seq)
				}
				recs = append(recs, placed{r.seq, r.load})
			}
			slices.SortFunc(recs, func(a, b placed) int { return cmp.Compare(a.seq, b.seq) })
			fold := 0.0
			for k, r := range recs {
				if k > 0 && r.seq == recs[k-1].seq {
					t.Fatalf("t=%v host %d: seq %d held by a service and a batch record", when, i, r.seq)
				}
				fold += r.load
			}
			if math.Float64bits(fold) != math.Float64bits(h.demand) {
				t.Fatalf("t=%v host %d: cached demand %v, fold over %d records %v",
					when, i, h.demand, len(recs), fold)
			}
		}
	}
	m.eng.At(0, m.epoch)
	epochs := 0
	for t0 := sim.Time(0); t0 < m.horizon; t0 = t0.Add(m.cfg.Epoch) {
		m.eng.Run(t0)
		if m.now != t0 {
			t.Fatalf("epoch at %v did not run (boundary clock %v)", t0, m.now)
		}
		checkDemand(t0)
		if got, want := aggBits(m.agg), aggBits(reduceHosts(m, t0)); got != want {
			t.Fatalf("t=%v: fused aggregates %+v, separate reduction %+v", t0, m.agg, reduceHosts(m, t0))
		}
		epochs++
	}
	m.boundary(m.horizon)
	checkDemand(m.horizon)
	res := m.result()
	if epochs == 0 || res.Crashes == 0 || res.Restarts == 0 || res.Evacuations == 0 || res.Lifetimes == 0 {
		t.Fatalf("run too quiet: epochs=%d crashes=%d restarts=%d evacuations=%d lifetimes=%d",
			epochs, res.Crashes, res.Restarts, res.Evacuations, res.Lifetimes)
	}
}

// reduceHosts recomputes the aggregate block of the epoch that started at
// t0 from host state alone, in its own host-order pass.
func reduceHosts(m *macroSim, t0 sim.Time) macroAgg {
	minU, maxU := math.Inf(1), math.Inf(-1)
	var a macroAgg
	sumU := 0.0
	for i := range m.hosts {
		h := &m.hosts[i]
		minU = math.Min(minU, h.util)
		maxU = math.Max(maxU, h.util)
		sumU += h.util
		a.stealEMAMean += h.stealEMA
		a.committed += float64(h.committed)
		a.alive += float64(h.live())
		switch {
		case h.downUntil > t0:
			a.hostsDown++
		case h.degradedUntil > t0:
			a.hostsDegraded++
		}
		if h.stallUntil > t0 {
			a.hostsStalled++
		}
	}
	n := float64(len(m.hosts))
	if sumU > 0 {
		a.di = (maxU - minU) / (sumU / n)
	}
	a.utilMean, a.utilMax = sumU/n, maxU
	a.stealEMAMean /= n
	a.pendingRetry = float64(len(m.retryQ))
	a.restarts = float64(m.ledger.Restarts)
	a.lost = float64(m.ledger.Lost)
	a.evacuations = float64(m.ledger.Evacuations)
	a.killed = float64(m.ledger.Killed)
	return a
}

// aggBits returns every field of a as raw float64 bits, so == compares the
// block bit for bit.
func aggBits(a macroAgg) [14]uint64 {
	var out [14]uint64
	v := reflect.ValueOf(a)
	if v.NumField() != len(out) {
		panic(fmt.Sprintf("macroAgg has %d fields, aggBits covers %d", v.NumField(), len(out)))
	}
	for i := range out {
		out[i] = math.Float64bits(v.Field(i).Float())
	}
	return out
}

// TestMacroIncrementalIndex drives stormRun under every policy one
// boundary at a time, stepping the boundary and the integration the way
// epoch does. After every boundary the incrementally maintained index must
// equal, node for node and bit for bit, a fresh index whose leaves are all
// written from indexLeaf and then rebuilt; and no host outside the open-
// window set may hold more than its effective capacity, since evacuate
// visits only that set. The stepped run must end in RunMacro's snapshot.
func TestMacroIncrementalIndex(t *testing.T) {
	for _, pol := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := stormRun(pol)
			m := newMacroSim(cfg)
			caps := make([]int, len(m.hosts))
			for i := range m.hosts {
				caps[i] = int(m.hosts[i].capacity)
			}
			check := func(b sim.Time) {
				t.Helper()
				ref := NewHostIndex(caps)
				for i := range m.hosts {
					committed, score := indexLeaf(m.cfg.Policy, m.macroInfo(i), caps[i])
					setLeaf(ref, i, committed, score)
				}
				ref.Rebuild()
				same := func(node int) bool {
					return m.ix.free[node] == ref.free[node] &&
						math.Float64bits(m.ix.score[node]) == math.Float64bits(ref.score[node])
				}
				for i := range m.hosts {
					if leaf := ref.size + i; !same(leaf) {
						t.Fatalf("boundary %v: host %d leaf (free %d, score %v), full rescore (free %d, score %v)",
							b, i, m.ix.free[leaf], m.ix.score[leaf], ref.free[leaf], ref.score[leaf])
					}
				}
				for node := 1; node < ref.size; node++ {
					if !same(node) {
						t.Fatalf("boundary %v: node %d (free %d, score %v), full rescore (free %d, score %v)",
							b, node, m.ix.free[node], m.ix.score[node], ref.free[node], ref.score[node])
					}
				}
				for k := 1; k < len(m.open); k++ {
					if m.open[k-1] >= m.open[k] {
						t.Fatalf("boundary %v: open set %v not strictly ascending", b, m.open)
					}
				}
				for i := range m.hosts {
					h := &m.hosts[i]
					if _, open := slices.BinarySearch(m.open, int32(i)); !open && int(h.committed) > h.effCap(caps[i], b) {
						t.Fatalf("boundary %v: host %d outside the open set holds %d vCPUs over effective capacity %d",
							b, i, h.committed, h.effCap(caps[i], b))
					}
				}
			}
			boundaries := 0
			for t0 := sim.Time(0); t0 < m.horizon; t0 = t0.Add(m.cfg.Epoch) {
				m.boundary(t0)
				check(t0)
				boundaries++
				m.integrate(t0, min(t0.Add(m.cfg.Epoch), m.horizon))
			}
			m.boundary(m.horizon)
			check(m.horizon)
			res := m.result()
			if res.Evacuations == 0 || res.Restarts == 0 || res.Lifetimes == 0 {
				t.Fatalf("run too quiet over %d boundaries: evacuations=%d restarts=%d lifetimes=%d",
					boundaries, res.Evacuations, res.Restarts, res.Lifetimes)
			}
			if want := RunMacro(cfg); !bytes.Equal(res.Snapshot, want.Snapshot) {
				t.Fatalf("stepped run %s, RunMacro %s", SnapshotDigest(res.Snapshot), SnapshotDigest(want.Snapshot))
			}
		})
	}
}
