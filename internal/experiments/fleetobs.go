package experiments

import (
	"fmt"

	"vsched/internal/fleet"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// FleetObs validates the telemetry flight recorder at fleet scale (no paper
// counterpart; it guards the observability layer itself). Two cells replay
// one arrival trace — first-fit vs steal-aware placement, CFS guests — with
// a recorder sampling the fleet registry, per-host steal/utilization,
// per-class population and the simulator's own event-queue census. The run
// asserts two properties, panicking on violation:
//
//  1. Bounded memory: recorded bytes stay under the recorder's provable
//     bound and under a fixed budget, while buffering the run's raw vtrace
//     event stream would blow well past it.
//  2. Signal: the worst per-host p95 steal series visibly drops under
//     steal-aware placement vs first-fit — the continuously-observable
//     version of the fleet experiment's headline.
//
// The two policies run as cells, so TestCellsMatchSerial pins each cell's
// telemetry snapshot byte for byte between a serial and a parallel run.
func FleetObs(o Options) *Report {
	hostCfg := host.DefaultConfig()
	hostCfg.Sockets = 1
	hostCfg.CoresPerSocket = 4
	hostCfg.ThreadsPerCore = 2

	const hosts = 8
	arrivals := 48
	if o.Scale > 0 && o.Scale < 1 {
		if n := int(48*o.Scale + 0.5); n < arrivals {
			arrivals = n
		}
		if arrivals < 12 {
			arrivals = 12
		}
	}
	window := o.scaled(4 * sim.Second)
	horizon := o.scaled(8 * sim.Second)
	mix := []fleet.TypeMix{
		{Type: fleet.VMType{Name: "websvc", VCPUs: 2, Service: true, ServiceMean: 400 * sim.Microsecond},
			Weight: 3, MeanLifetime: o.scaled(4 * sim.Second)},
		{Type: fleet.VMType{Name: "batch4", VCPUs: 4, BatchWork: 2 * sim.Millisecond},
			Weight: 3, MeanLifetime: o.scaled(5 * sim.Second)},
	}
	trace := fleet.GenerateArrivals(o.Seed, arrivals, window, mix)

	// A deliberately small recorder config: the memory-bound assertion uses
	// the provable bound, so it should be tight enough to mean something.
	tcfg := telemetry.Config{
		Interval:       o.scaled(25 * sim.Millisecond),
		RawChunkPoints: 256,
		RawChunks:      2,
		Tier1Cap:       128,
		Tier2Cap:       256,
	}

	policies := []fleet.Policy{fleet.FirstFit{}, fleet.StealAware{}}
	var cfgs []fleet.Config
	for _, pol := range policies {
		cfgs = append(cfgs, fleet.Config{
			Seed:           o.Seed,
			Hosts:          hosts,
			HostConfig:     hostCfg,
			Overcommit:     2.0,
			Policy:         pol,
			VSched:         false,
			Arrivals:       trace,
			Horizon:        horizon,
			TelemetryEvery: o.scaled(50 * sim.Millisecond),
			Telemetry:      &tcfg,
		})
	}

	results := cells(o, len(cfgs), func(i int, o Options) *fleet.Result {
		f := fleet.New(cfgs[i])
		o.Stats.Track(f.Engine())
		return f.Run()
	})

	rep := &Report{
		ID:     "fleetobs",
		Title:  "Telemetry flight recorder: determinism, memory bound, steal signal",
		Header: []string{"policy", "series", "samples", "telem KB", "bound KB", "events MB", "steal p95", "e2e p95 ms"},
	}

	// The budget the compressed recorder must stay under — and raw event
	// tracing must not. Sample count is scale-invariant (interval and horizon
	// scale together) so the telemetry footprint is too, while event volume
	// grows with work; 512 KiB separates the two at every scale down to the
	// determinism suite's 0.1. 48 bytes is sizeof(vtrace.Event).
	const budget = 512 << 10
	const eventBytes = 48

	stealP95 := make([]float64, len(results))
	for i, r := range results {
		// Assertion 1: bounded memory. Deterministic series only, so the row
		// is reproducible; the volatile wall-clock series add ~3 more.
		detBytes, detMax := 0, 0
		series := r.Telemetry.Series(false)
		for _, s := range series {
			detBytes += s.Bytes()
			detMax += telemetry.MaxSeriesBytes(tcfg)
		}
		if detBytes > detMax {
			panic(fmt.Sprintf("fleetobs: %s telemetry %d B exceeds provable bound %d B", r.Policy, detBytes, detMax))
		}
		if detBytes > budget {
			panic(fmt.Sprintf("fleetobs: %s telemetry %d B exceeds budget %d B", r.Policy, detBytes, budget))
		}
		rawTrace := r.Events * eventBytes
		if rawTrace <= budget {
			panic(fmt.Sprintf("fleetobs: raw event tracing (%d B) fits the %d B budget — scenario too small to demonstrate the trade",
				rawTrace, budget))
		}

		// Worst per-host p95 of the sampled steal EMA series.
		worst := 0.0
		for _, s := range series {
			if len(s.Name) > 10 && s.Name[:10] == "fleet.host" && s.Name[len(s.Name)-9:] == "steal_ema" {
				if q := s.Quantile(0.95); q > worst {
					worst = q
				}
			}
		}
		stealP95[i] = worst

		rep.Add(r.Policy,
			fmt.Sprintf("%d", len(series)),
			fmt.Sprintf("%d", r.Telemetry.Samples()),
			fmt.Sprintf("%d", detBytes/1024),
			fmt.Sprintf("%d", detMax/1024),
			f1(float64(rawTrace)/(1<<20)),
			fmt.Sprintf("%.4f", worst),
			msStr(r.E2E.P95()))
	}

	// Assertion 2: steal-aware placement visibly lowers the worst sampled
	// steal series vs first-fit.
	ff, sa := stealP95[0], stealP95[1]
	if !(sa < ff) {
		panic(fmt.Sprintf("fleetobs: steal-aware worst p95 steal %.4f not below first-fit %.4f", sa, ff))
	}
	rep.Notef("steal-aware worst-host p95 steal is %.0f%% of first-fit (%.4f vs %.4f)",
		sa/ff*100, sa, ff)
	rep.Notef("%d hosts, %d arrivals over %v, horizon %v, sample interval %v",
		hosts, arrivals, window, horizon, tcfg.Interval)

	for _, r := range results {
		o.Stats.TrackRegistry("fleetobs/"+r.Policy, r.Registry)
		o.Stats.TrackTelemetry("fleetobs/"+r.Policy, r.Telemetry)
	}
	return rep
}
