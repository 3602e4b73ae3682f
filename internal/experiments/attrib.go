package experiments

import (
	"fmt"

	"vsched/internal/core"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/latprof"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
	"vsched/internal/workload"
)

// attribPattern is one of the three standard host contention patterns used
// throughout §5: the co-tenant is active `on` out of every `on+off`.
type attribPattern struct {
	name    string
	on, off sim.Duration
}

func attribPatterns() []attribPattern {
	return []attribPattern{
		{"balanced-5ms", 5 * sim.Millisecond, 5 * sim.Millisecond},
		{"bursty-40ms", 40 * sim.Millisecond, 40 * sim.Millisecond},
		{"heavy-30/10", 30 * sim.Millisecond, 10 * sim.Millisecond},
	}
}

// attribConfig is one scheduler configuration under comparison. The baseline
// runs the probers without bvs/ivh (like Fig. 14's "no-bvs" arm), so the
// deltas isolate the techniques, not the probing overhead.
type attribConfig struct {
	name  string
	feats core.Features
}

func attribConfigs() []attribConfig {
	bvs := probersOnly()
	bvs.BVS = true
	full := bvs
	full.IVH = true
	return []attribConfig{
		{"baseline", probersOnly()},
		{"+bvs", bvs},
		{"+bvs+ivh", full},
	}
}

// runAttrib builds the attribution rig, warms it up, then taps a live
// latency profiler into the trace stream for the measurement window.
//
// The rig: 4 cores x 2 SMT threads; the VM's 4 vCPUs take the first slot of
// each core. The pattern co-tenants steal threads 0 and 4 (vCPUs 0 and 2,
// phase-staggered) and a fixed 5ms/5ms sibling on thread 1 applies SMT
// pressure to vCPU 0's core, while vCPUs 1 and 3 sit on clean cores — so
// steal-wait, smt-slowdown and idle capacity all exist for the scheduler to
// trade between. The guest runs a latency-marked open-loop server (bvs's
// clientele) plus one CPU-bound "mill" batch task pinned by never blocking
// to a stolen vCPU: the server's requests queue behind it there, and only
// ivh's running-task pull can move it onto the idle capacity of the clean
// cores.
func runAttrib(o Options, pat attribPattern, feats core.Features) *latprof.Profile {
	c := newCluster(o, 1, 4, 2)
	d := deployFeatures(c, "vm", c.threads(0, 2, 4, 6), feats)
	host.NewPatternContender(c.h, "tenant0", c.h.Thread(0), pat.on, pat.off, 0)
	host.NewPatternContender(c.h, "tenant1", c.h.Thread(4), pat.on, pat.off, pat.on/2)
	host.NewPatternContender(c.h, "sibling", c.h.Thread(1), 3*sim.Millisecond, 3*sim.Millisecond, 0)
	// CPU bandwidth quota on vCPU 2 (35% of the period — tight enough to bind
	// under the lighter patterns): throttle-wait shows up in the breakdown as
	// its own cause, distinct from the steal on the same thread.
	d.vm.VCPU(2).Entity().SetBandwidth(35 * sim.Millisecond)

	d.vm.Spawn("mill", func(sim.Time) guest.Segment {
		return guest.Compute(8e6) // 4ms chunks: CPU-intensive for ivh
	}, guest.StartOn(0), guest.WithGroup(d.vs.UserGroup()))

	srv := workload.NewServer(d.env(0), workload.ServerConfig{
		Name:         "attrib-srv",
		Workers:      8,
		ServiceMean:  500 * sim.Microsecond,
		ServiceJit:   0.4,
		Interarrival: 500 * sim.Microsecond,
		LatencyMark:  true,
	})
	srv.Start()
	c.eng.RunFor(o.warm(4 * sim.Second))

	// Attach the profiler only for the measurement window: warmup (prober
	// learning) must not dilute the attribution. Attaching a tracer mid-run
	// is inert for the simulation, so all configurations see identical
	// workloads up to here.
	p := latprof.New(latprof.Config{VM: "vm", NominalSpeed: c.h.Config().BaseSpeed})
	tap := vtrace.NewObserver(p.Observe)
	vtrace.AttachHost(tap, c.h)
	d.vm.SetTracer(tap)
	c.eng.RunFor(o.scaled(10 * sim.Second))
	prof := p.Finish(c.eng.Now())
	// The acceptance invariant, enforced on every real run: per-span
	// components must sum to wall time exactly.
	if err := prof.CheckConservation(); err != nil {
		panic(err)
	}
	return prof
}

// Attrib runs the cross-layer latency attribution experiment: for each
// standard contention pattern, decompose task wall time by cause under
// baseline / +bvs / +bvs+ivh, showing *where* each technique removes
// latency — bvs moves steal-wait out of the tail, ivh drains guest
// runnable-wait — rather than only that p95 improved.
func Attrib(opt Options) *Report {
	rep := &Report{
		ID:    "attrib",
		Title: "Latency attribution: share of task wall time by cause",
		Header: []string{"pattern", "config", "spans", "run", "rnbl-wait", "steal-wait",
			"throttle", "migr", "smt", "steal@p95", "rnbl@p95", "top-blame"},
	}
	share := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	// Per-config sums across patterns for the mechanism note.
	type agg struct {
		steal, rnbl, total, tailSteal float64
	}
	sums := map[string]*agg{}
	for _, cfg := range attribConfigs() {
		sums[cfg.name] = &agg{}
	}
	nPat := len(attribPatterns())
	for _, pat := range attribPatterns() {
		for _, cfg := range attribConfigs() {
			prof := runAttrib(opt, pat, cfg.feats)
			reg := metrics.NewRegistry()
			prof.Publish(reg)
			opt.Stats.TrackRegistry("attrib/"+pat.name+"/"+cfg.name, reg)
			tot := prof.Totals()
			blame := "-"
			if tb := prof.TopBlame(1); len(tb) > 0 {
				blame = tb[0].Entity
			}
			tailSteal := prof.TailShare(latprof.StealWait, 0.95)
			rep.Add(pat.name, cfg.name, fmt.Sprintf("%d", prof.Len()),
				share(tot.Share(latprof.Run)),
				share(tot.Share(latprof.RunnableWait)),
				share(tot.Share(latprof.StealWait)),
				share(tot.Share(latprof.ThrottleWait)),
				share(tot.Share(latprof.Migration)),
				share(tot.Share(latprof.SMTSlowdown)),
				share(tailSteal),
				share(prof.TailShare(latprof.RunnableWait, 0.95)),
				blame)
			s := sums[cfg.name]
			s.steal += float64(tot.NS[latprof.StealWait])
			s.rnbl += float64(tot.NS[latprof.RunnableWait])
			s.total += float64(tot.Total())
			s.tailSteal += tailSteal
		}
	}
	rep.Notef("conservation: every span's six components sum to its wall time exactly (checked each run)")
	rep.Notef("@p95 columns: the cause's share of wall time within the slowest 5%% of spans")
	base, bvs, full := sums["baseline"], sums["+bvs"], sums["+bvs+ivh"]
	rep.Notef("bvs steal-wait: share %.1f%% -> %.1f%%, p95-tail share %.1f%% -> %.1f%%; ivh runnable-wait share %.1f%% -> %.1f%% (over patterns; single-seed shares are noisy, the harness averages seeds)",
		100*base.steal/base.total, 100*bvs.steal/bvs.total,
		100*base.tailSteal/float64(nPat), 100*bvs.tailSteal/float64(nPat),
		100*bvs.rnbl/bvs.total, 100*full.rnbl/full.total)
	return rep
}
