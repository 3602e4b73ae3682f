package experiments

import (
	"fmt"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/fleet"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// FaultTol is the fault-tolerance SLO experiment (no paper counterpart; the
// paper's testbed never loses a host). The fleetscale trace — 1024
// heterogeneous hosts, ~115k VM arrivals, 48 hours — runs under a
// deterministic crash+brownout+stall schedule three ways:
//
//   - clean: no faults, the reference throughput;
//   - faults: the schedule active but recovery disabled — crash victims are
//     terminally lost and admission rejections are final;
//   - recovery: the same schedule with the full reaction enabled — crash
//     victims and rejected arrivals retry through the bounded backoff queue,
//     and degraded hosts evacuate through the placement policy.
//
// The fault schedule is scale-aware: MTBFs are derived from the fleet size
// and horizon so the run sees the same expected event counts (~48 crashes,
// ~96 brownouts, ~144 stalls) at any -scale, keeping the gates meaningful in
// the shrunk test configurations.
//
// Each mode is one cell; the cells run in parallel and the report is
// assembled in mode order. Three gates panic on violation rather than
// merely reporting:
//
//  1. recovery value — the recovery run must complete strictly more VM
//     lifetimes than the no-recovery run under the identical schedule;
//  2. a live schedule — the no-recovery run must see crashes and lose VMs,
//     or the first gate is vacuous;
//  3. conservation — every arrival is accounted (arrived == lifetimes +
//     lost + rejected + running + pending, exactly); RunMacro itself
//     panics on any imbalance, so every row of the report implies it.
//
// Reported per mode: throughput accounting plus the SLO surface —
// availability, mean/max time-to-recover, restart and evacuation counts,
// and lost vCPU-hours.
func FaultTol(o Options) *Report {
	cfg := scaledCloudConfig(o.Scale)
	hosts := 0
	for _, hc := range cfg.Hosts {
		hosts += hc.Count
	}
	// Expected event count for kind k is hosts * horizon / MTBF_k; fixing
	// the targets makes the MTBFs absorb the scale.
	mtbf := func(target float64) sim.Duration {
		return sim.Duration(float64(hosts) * float64(cfg.Horizon) / target)
	}
	cfg.Faults = &faults.Config{
		CrashMTBF:    mtbf(48),
		BrownoutMTBF: mtbf(96),
		StallMTBF:    mtbf(144),
		MigFailProb:  0.1,
	}
	trace := cloudgen.Generate(o.Seed, cfg)

	tcfg := telemetry.Config{Interval: 60 * sim.Second}
	pol := fleet.StealAware{}

	rep := &Report{
		ID:    "faulttol",
		Title: "Fault tolerance: crash/brownout/stall schedule with recovery vs graceful loss (macro)",
		Header: []string{"mode", "placed", "rejected", "lifetimes", "lost", "restarts",
			"evac", "availability", "MTTR s", "lost vCPU-h"},
	}
	rep.Notef("trace: %d hosts, %d arrivals over %.0fh, %d fault events (seed %d)",
		len(trace.Hosts), len(trace.VMs), trace.Horizon.Seconds()/3600,
		len(trace.Faults.Events), o.Seed)

	modes := []struct {
		name  string
		sched *faults.Schedule
		rcv   faults.RecoveryConfig
		tc    *telemetry.Config
	}{
		{"clean", nil, faults.RecoveryConfig{}, nil},
		{"faults", trace.Faults, faults.RecoveryConfig{}, nil},
		{"recovery", trace.Faults, faults.RecoveryConfig{Enabled: true}, &tcfg},
	}
	results := cells(o, len(modes), func(i int, o Options) *fleet.MacroResult {
		md := modes[i]
		r := fleet.RunMacro(fleet.MacroConfig{
			Trace:     trace,
			Policy:    pol,
			Epoch:     60 * sim.Second,
			Faults:    md.sched,
			Recovery:  md.rcv,
			Telemetry: md.tc,
			Observe:   func(e *sim.Engine) { o.Stats.Track(e) },
		})
		if md.tc != nil { // the recovery cell: its registry and series are the ones reported
			o.Stats.TrackRegistry("faulttol."+md.name, r.Registry)
			o.Stats.TrackTelemetry("faulttol."+md.name, r.Telemetry)
		}
		return r
	})
	for i, r := range results {
		rep.Add(modes[i].name,
			fmt.Sprintf("%d", r.Placed),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Lifetimes),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%d", r.Restarts),
			fmt.Sprintf("%d", r.Evacuations),
			fmt.Sprintf("%.5f", r.Availability),
			fmt.Sprintf("%.0f", r.MTTRMean),
			fmt.Sprintf("%.1f", r.LostVCPUHours),
		)
	}
	noRec, rec := results[1], results[2]

	if rec.Lifetimes <= noRec.Lifetimes {
		panic(fmt.Sprintf("faulttol: recovery completed %d lifetimes, no-recovery %d — recovery must win strictly",
			rec.Lifetimes, noRec.Lifetimes))
	}
	if noRec.Crashes == 0 || noRec.Lost == 0 {
		panic(fmt.Sprintf("faulttol: schedule too quiet (crashes=%d lost=%d) — gates are vacuous",
			noRec.Crashes, noRec.Lost))
	}
	rep.Notef("gates: recovery lifetimes %d > %d; "+
		"conservation arrived == lifetimes+lost+rejected+running+pending (RunMacro panics otherwise)",
		rec.Lifetimes, noRec.Lifetimes)
	rep.Notef("recovery: %d crashes killed %d VMs, %d restarts, %d lost, %d evacuations (%d failed), MTTR max %.0fs",
		rec.Crashes, rec.Killed, rec.Restarts, rec.Lost, rec.Evacuations, rec.EvacFailures, rec.MTTRMax)
	if o.Verbose {
		rep.Notef("recovery snapshot %s", fleet.SnapshotDigest(rec.Snapshot))
	}
	return rep
}
