package experiments

import (
	"fmt"
	"strings"

	"vsched/internal/fleet"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// FleetScale has no paper counterpart (like probeacc): it takes vSched to
// the scale the paper's claims are about. A 32-host cluster receives a
// trace of 128 VM arrivals — latency-sensitive service VMs mixed with
// CPU-hogging batch VMs, exponential lifetimes — under three placement
// policies crossed with {CFS, vSched} guests. Contention is organic:
// colocated VMs steal from each other, and the live-migration controller
// reshuffles hotspots from per-host steal telemetry. Reported per cell:
// fleet-wide p50/p95 request latency, throughput, cumulative steal, and
// migration counts. The cells are independent simulations sharing one
// arrival trace, run as cells in policy x guest order.
//
// The first-fit and steal-aware CFS cells also carry a telemetry flight
// recorder, checked by checkFleetTelemetry. Telemetry is inert, so the
// report is the same with or without it.
func FleetScale(o Options) *Report {
	_, rep := fleetScale(o)
	return rep
}

// fleetScale runs the fleet cells and the telemetry checks, and returns the
// typed results in policy x guest order with the report rendered from them.
func fleetScale(o Options) ([]*fleet.Result, *Report) {
	hostCfg := host.DefaultConfig()
	hostCfg.Sockets = 1
	hostCfg.CoresPerSocket = 4
	hostCfg.ThreadsPerCore = 2

	const hosts = 32
	arrivals := 128
	if o.Scale > 0 && o.Scale < 1 {
		if n := int(128*o.Scale + 0.5); n < arrivals {
			arrivals = n
		}
		if arrivals < 16 {
			arrivals = 16
		}
	}
	window := o.scaled(8 * sim.Second)
	horizon := o.scaled(12 * sim.Second)
	mix := []fleet.TypeMix{
		{Type: fleet.VMType{Name: "websvc", VCPUs: 2, Service: true, ServiceMean: 400 * sim.Microsecond},
			Weight: 4, MeanLifetime: o.scaled(4 * sim.Second)},
		{Type: fleet.VMType{Name: "apisvc", VCPUs: 4, Service: true, ServiceMean: sim.Millisecond},
			Weight: 2, MeanLifetime: o.scaled(5 * sim.Second)},
		{Type: fleet.VMType{Name: "batch2", VCPUs: 2, BatchWork: 1500 * sim.Microsecond},
			Weight: 3, MeanLifetime: o.scaled(3 * sim.Second)},
		{Type: fleet.VMType{Name: "batch8", VCPUs: 8, BatchWork: 2500 * sim.Microsecond},
			Weight: 1, MeanLifetime: o.scaled(4 * sim.Second)},
	}
	trace := fleet.GenerateArrivals(o.Seed, arrivals, window, mix)

	// A deliberately small recorder config: the memory check uses the
	// provable bound, so it should be tight enough to mean something.
	tcfg := telemetry.Config{
		Interval: o.scaled(25 * sim.Millisecond),
		Buckets:  64,
	}

	policies := []fleet.Policy{fleet.FirstFit{}, fleet.LeastLoaded{}, fleet.StealAware{}}
	var cfgs []fleet.Config
	var labels []string
	for _, pol := range policies {
		for _, vs := range []bool{false, true} {
			cfg := fleet.Config{
				Seed:           o.Seed,
				Hosts:          hosts,
				HostConfig:     hostCfg,
				Overcommit:     2.0,
				Policy:         pol,
				VSched:         vs,
				Arrivals:       trace,
				Horizon:        horizon,
				TelemetryEvery: o.scaled(50 * sim.Millisecond),
				Migration: fleet.MigrationConfig{
					Every:    o.scaled(500 * sim.Millisecond),
					MinSteal: 0.12,
					Margin:   0.04,
					Downtime: o.scaled(20 * sim.Millisecond),
				},
			}
			guest := "CFS"
			if vs {
				guest = "vSched"
			}
			if !vs && pol.Name() != "least-loaded" { // the two cells checkFleetTelemetry compares
				cfg.Telemetry = &tcfg
			}
			cfgs = append(cfgs, cfg)
			labels = append(labels, fmt.Sprintf("fleet/%s/%s", pol.Name(), guest))
		}
	}

	results := cells(o, len(cfgs), func(i int, o Options) *fleet.Result {
		f := fleet.New(cfgs[i])
		o.Stats.Track(f.Engine())
		o.Stats.TrackRegistry(labels[i], f.Registry())
		r := f.Run()
		o.Stats.TrackTelemetry(labels[i], r.Telemetry)
		return r
	})
	checkFleetTelemetry(tcfg, results[0], results[4]) // first-fit and steal-aware, CFS

	rep := &Report{
		ID:     "fleet",
		Title:  "Fleet-scale placement: policy x guest on a 32-host cluster",
		Header: []string{"policy", "guest", "placed", "rejected", "p50 ms", "p95 ms", "kops", "steal s", "migrations"},
	}
	secs := float64(horizon) / 1e9
	p95 := map[string]float64{}
	for _, r := range results {
		rep.Add(r.Policy, r.Guest,
			fmt.Sprintf("%d", r.Placed), fmt.Sprintf("%d", r.Rejected),
			msStr(r.E2E.P50()), msStr(r.E2E.P95()),
			f1(float64(r.Ops)/secs/1e3),
			f1(float64(r.Steal)/1e9),
			fmt.Sprintf("%d", r.Migrations))
		p95[r.Policy+"/"+r.Guest] = float64(r.E2E.P95())
	}
	rep.Notef("%d hosts x %d threads, %d arrivals over %v, overcommit 2.0, horizon %v",
		hosts, hostCfg.Sockets*hostCfg.CoresPerSocket*hostCfg.ThreadsPerCore,
		arrivals, window, horizon)
	for _, guest := range []string{"CFS", "vSched"} {
		ff, sa := p95["first-fit/"+guest], p95["steal-aware/"+guest]
		if ff > 0 && sa > 0 {
			rep.Notef("%s guests: steal-aware p95 is %.1f%% of first-fit (%.2f vs %.2f ms)",
				guest, sa/ff*100, sa/1e6, ff/1e6)
		}
	}
	return results, rep
}

// checkFleetTelemetry panics unless the two recorded cells show what a
// flight recorder is for:
//
//  1. Bounded memory: each recorder's deterministic series stay under their
//     provable bound and under a fixed budget, while buffering the cell's
//     raw event stream would not fit that budget.
//  2. Signal: the worst per-host p95 of the sampled steal EMA is lower under
//     steal-aware placement than under first-fit.
func checkFleetTelemetry(cfg telemetry.Config, firstFit, stealAware *fleet.Result) {
	// Sample count is scale-invariant (interval and horizon scale together),
	// so the telemetry footprint is too, while event volume grows with work.
	// 48 bytes is sizeof(vtrace.Event).
	const budget = 512 << 10
	const eventBytes = 48
	worstSteal := func(r *fleet.Result) float64 {
		bytes, bound, worst := 0, 0, 0.0
		for _, s := range r.Telemetry.Series(false) {
			bytes += s.Bytes()
			bound += telemetry.MaxSeriesBytes(cfg)
			if strings.HasPrefix(s.Name, "fleet.host") && strings.HasSuffix(s.Name, ".steal_ema") {
				worst = max(worst, s.Quantile(0.95))
			}
		}
		switch raw := r.Events * eventBytes; {
		case bytes > bound:
			panic(fmt.Sprintf("fleet: %s telemetry %d B exceeds provable bound %d B", r.Policy, bytes, bound))
		case bytes > budget:
			panic(fmt.Sprintf("fleet: %s telemetry %d B exceeds budget %d B", r.Policy, bytes, budget))
		case raw <= budget:
			panic(fmt.Sprintf("fleet: %s raw event trace (%d B) fits the %d B budget: scenario too small to show the trade",
				r.Policy, raw, budget))
		}
		return worst
	}
	ff, sa := worstSteal(firstFit), worstSteal(stealAware)
	if !(sa < ff) {
		panic(fmt.Sprintf("fleet: %s worst-host p95 steal %.4f not below %s's %.4f",
			stealAware.Policy, sa, firstFit.Policy, ff))
	}
}
