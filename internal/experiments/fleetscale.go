package experiments

import (
	"fmt"

	"vsched/internal/cloudgen"
	"vsched/internal/fleet"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// scaledCloudConfig shrinks the default cloudgen trace for -scale < 1 with
// floors that keep the scenario meaningful: heterogeneous hosts, thousands
// of lifetimes, several diurnal-scale hours. Shared by the fleetscale and
// faulttol experiments so both see the same fleet at a given scale.
func scaledCloudConfig(scale float64) cloudgen.Config {
	cfg := cloudgen.DefaultConfig()
	if scale <= 0 {
		scale = 1
	}
	if scale < 1 {
		if h := sim.Duration(float64(cfg.Horizon) * scale); h >= 3*cloudgen.Hour {
			cfg.Horizon = h
		} else {
			cfg.Horizon = 3 * cloudgen.Hour
		}
		if r := cfg.BaseRate * scale * 4; r < cfg.BaseRate {
			cfg.BaseRate = r
		}
		for i := range cfg.Hosts {
			if n := int(float64(cfg.Hosts[i].Count) * scale); n >= 2 {
				cfg.Hosts[i].Count = n
			} else {
				cfg.Hosts[i].Count = 2
			}
		}
	}
	return cfg
}

// CloudScale pushes the fleet layer to cloud-provider dimensions (no paper
// counterpart; the paper's testbed stops at a handful of hosts). A cloudgen
// trace — heavy-tailed VM sizes, diurnal arrivals, bimodal lifetimes,
// heterogeneous host classes — drives the macro fleet simulator at full
// scale: 1024 hosts, ~115k VM arrivals, 48 hours of virtual time, per
// placement policy. Reported per policy:
//
//   - degree of imbalance (max-min)/avg of host utilization, mean and max
//     over epochs — the CloudSim load-balance metric;
//   - batch makespan (completion of the last batch VM);
//   - p95 per-VM steal fraction — the vSched-visible cost of bad placement;
//   - throughput accounting (placed / rejected / completed lifetimes).
//
// Each policy is one cell with a telemetry recorder attached; the cells run
// in parallel and the report is assembled in policy order. Determinism and
// telemetry inertness are pinned by the fleet package's snapshot-digest and
// attached-vs-detached tests.
func CloudScale(o Options) *Report {
	trace := cloudgen.Generate(o.Seed, scaledCloudConfig(o.Scale))

	tcfg := telemetry.Config{Interval: 60 * sim.Second}

	rep := &Report{
		ID:    "fleetscale",
		Title: "Cloud-scale placement: heavy-tailed diurnal trace on a heterogeneous fleet (macro)",
		Header: []string{"policy", "placed", "rejected", "lifetimes", "DI mean", "DI max",
			"makespan h", "p95 steal", "steal vCPU-h", "Mevents"},
	}
	rep.Notef("trace: %d hosts (%d threads), %d arrivals over %.0fh, seed %d",
		len(trace.Hosts), trace.TotalThreads(), len(trace.VMs), trace.Horizon.Seconds()/3600, o.Seed)

	policies := []fleet.Policy{fleet.FirstFit{}, fleet.LeastLoaded{}, fleet.StealAware{}}
	results := cells(o, len(policies), func(i int, o Options) *fleet.MacroResult {
		r := fleet.RunMacro(fleet.MacroConfig{
			Trace:     trace,
			Policy:    policies[i],
			Epoch:     60 * sim.Second,
			Telemetry: &tcfg,
			Observe:   func(e *sim.Engine) { o.Stats.Track(e) },
		})
		o.Stats.TrackRegistry("fleetscale."+r.Policy, r.Registry)
		o.Stats.TrackTelemetry("fleetscale."+r.Policy, r.Telemetry)
		return r
	})
	for _, r := range results {
		rep.Add(r.Policy,
			fmt.Sprintf("%d", r.Placed),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Lifetimes),
			fmt.Sprintf("%.3f", r.DIMean),
			fmt.Sprintf("%.3f", r.DIMax),
			fmt.Sprintf("%.2f", r.Makespan.Sub(0).Seconds()/3600),
			fmt.Sprintf("%.4f", r.P95Steal),
			fmt.Sprintf("%.1f", r.TotalStealHours),
			fmt.Sprintf("%.1f", float64(r.Events)/1e6),
		)
		if o.Verbose {
			rep.Notef("%s: snapshot %s", r.Policy, fleet.SnapshotDigest(r.Snapshot))
		}
	}
	rep.Notef("one cell per policy with a 60s telemetry recorder, run in parallel and reported in policy order")
	return rep
}
