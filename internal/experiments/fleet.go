package experiments

import (
	"fmt"

	"vsched/internal/fleet"
	"vsched/internal/host"
	"vsched/internal/sim"
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
func FleetScale(o Options) *Report {
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

	policies := []fleet.Policy{fleet.FirstFit{}, fleet.LeastLoaded{}, fleet.StealAware{}}
	var cfgs []fleet.Config
	var labels []string
	for _, pol := range policies {
		for _, vs := range []bool{false, true} {
			cfgs = append(cfgs, fleet.Config{
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
			})
			guest := "CFS"
			if vs {
				guest = "vSched"
			}
			labels = append(labels, fmt.Sprintf("fleet/%s/%s", pol.Name(), guest))
		}
	}

	results := cells(o, len(cfgs), func(i int, o Options) *fleet.Result {
		f := fleet.New(cfgs[i])
		o.Stats.Track(f.Engine())
		o.Stats.TrackRegistry(labels[i], f.Registry())
		return f.Run()
	})

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
	return rep
}
