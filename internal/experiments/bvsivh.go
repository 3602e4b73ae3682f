package experiments

import (
	"fmt"

	"vsched/internal/core"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/workload"
)

// bvsRig builds the Fig. 14 / Table 3 VM: 16 vCPUs, symmetric 50% capacity,
// asymmetric latency — the host scheduling granularity on the threads of
// vCPUs 0..7 is 6ms, on vCPUs 8..15 3ms ("half of vCPUs have 2x lower
// latency"), with a CFS co-tenant stressing every core.
func bvsRig(o Options, feats core.Features) (*cluster, *deployment) {
	c := newFlatCluster(o, 1, 16, 1)
	for i := 0; i < 16; i++ {
		gran := 6 * sim.Millisecond
		if i >= 8 {
			gran = 3 * sim.Millisecond
		}
		th := c.h.Thread(i)
		th.SetGranularities(gran, 2*gran)
		host.NewStressor(c.h, "tenant", th, host.DefaultWeight)
	}
	return c, deployFeatures(c, "vm", c.firstThreads(16), feats)
}

func probersOnly() core.Features { return core.Features{Vcap: true, Vact: true, Vtop: true} }

// Fig14 reproduces the bvs latency experiment (§5.4): p95 tail latency of
// five Tailbench services with and without bvs, with and without best-effort
// background tasks. vProbers run in both configurations.
func Fig14(opt Options) *Report {
	rep := &Report{
		ID:     "fig14",
		Title:  "p95 latency with bvs, normalized to bvs disabled (lower is better)",
		Header: []string{"bench", "best-effort", "no-bvs p95(ms)", "bvs p95(ms)", "normalized"},
	}
	benches := []string{"img-dnn", "masstree", "silo", "specjbb", "xapian"}
	warm := opt.warm(6 * sim.Second) // probers must learn latencies
	window := opt.scaled(15 * sim.Second)

	// Per (best-effort, bench), a cell without bvs then one with it.
	bes := []bool{false, true}
	p95 := cells(opt, 2*len(bes)*len(benches), func(i int, o Options) int64 {
		feats := probersOnly()
		feats.BVS = i%2 == 1
		c, d := bvsRig(o, feats)
		if bes[i/(2*len(benches))] {
			spawnBestEffort(d)
		}
		spec, _ := workload.ByName(benches[i/2%len(benches)])
		srv := spec.New(d.env(0)).(*workload.Server)
		srv.Start()
		c.eng.RunFor(warm)
		srv.ResetStats()
		c.eng.RunFor(window)
		return srv.E2E().P95()
	})

	var sumNorm float64
	var n int
	for b, withBE := range bes {
		for j, bench := range benches {
			k := 2 * (b*len(benches) + j)
			off, on := p95[k], p95[k+1]
			norm := float64(on) / float64(off)
			sumNorm += norm
			n++
			beTag := "without"
			if withBE {
				beTag = "with"
			}
			rep.Add(bench, beTag, msStr(off), msStr(on), pct(norm))
		}
	}
	rep.Notef("average p95 reduction with bvs: %.0f%% (paper: 42%%)", 100*(1-sumNorm/float64(n)))
	return rep
}

// Table3 reproduces the Masstree latency breakdown (§5.4): queue, service
// and end-to-end p95 under no bvs / bvs without the state check / full bvs.
func Table3(opt Options) *Report {
	rep := &Report{
		ID:     "table3",
		Title:  "Masstree p95 latency breakdown (ms)",
		Header: []string{"best-effort", "config", "queue", "service", "end-2-end"},
	}
	warm := opt.warm(6 * sim.Second)
	window := opt.scaled(15 * sim.Second)

	type cell struct {
		withBE bool
		mode   string
	}
	specs := []cell{
		{false, "no-bvs"}, {false, "bvs"},
		{true, "no-bvs"}, {true, "bvs-no-state"}, {true, "bvs"},
	}
	p95 := cells(opt, len(specs), func(i int, o Options) [3]int64 {
		s := specs[i]
		feats := probersOnly()
		feats.BVS = s.mode != "no-bvs"
		c, d := bvsRig(o, feats)
		if s.mode == "bvs-no-state" {
			d.vs.SetBVSStateCheck(false)
		}
		if s.withBE {
			spawnBestEffort(d)
		}
		srv := workload.NewTailbench(d.env(0), "masstree", 350*sim.Microsecond)
		srv.Start()
		c.eng.RunFor(warm)
		srv.ResetStats()
		c.eng.RunFor(window)
		return [3]int64{srv.Queue().P95(), srv.Service().P95(), srv.E2E().P95()}
	})

	for i, s := range specs {
		beTag := "without"
		if s.withBE {
			beTag = "with"
		}
		rep.Add(beTag, s.mode, msStr(p95[i][0]), msStr(p95[i][1]), msStr(p95[i][2]))
	}
	rep.Notef("paper: bvs cuts queue time 70%%/44%% (without/with best-effort); state check matters on sched_idle vCPUs")
	return rep
}

// ivhRig builds the Fig. 15 / Table 4 VM: 16 vCPUs each sharing 50% of a
// core in 5ms bursts, phases staggered so there is usually an active unused
// vCPU to harvest.
func ivhRig(o Options, feats core.Features) (*cluster, *deployment) {
	c := newFlatCluster(o, 1, 16, 1)
	for i := 0; i < 16; i++ {
		// A CFS co-tenant on every core: each vCPU owns a fair 50% share. A
		// busy vCPU suffers ~3ms inactive periods (the host slice quantum);
		// an idle vCPU's share goes unused — until ivh harvests it, because
		// a kicked idle vCPU preempts the co-tenant almost immediately.
		host.NewStressor(c.h, "tenant", c.h.Thread(i), host.DefaultWeight)
	}
	return c, deployFeatures(c, "vm", c.firstThreads(16), feats)
}

// Fig15 reproduces the ivh throughput experiment (§5.5): throughput
// improvement from ivh for throughput-oriented workloads across thread
// counts, largest when many vCPUs are unused.
func Fig15(opt Options) *Report {
	rep := &Report{
		ID:     "fig15",
		Title:  "Throughput improvement with ivh vs ivh disabled (higher is better)",
		Header: []string{"bench", "1thr", "2thr", "4thr", "8thr", "16thr"},
	}
	benches := []string{
		"streamcluster", "canneal", "blackscholes", "bodytrack", "dedup",
		"ocean_cp", "ocean_ncp", "radiosity", "radix", "fft", "pbzip2",
	}
	threadCounts := []int{1, 2, 4, 8, 16}
	warm := opt.warm(4 * sim.Second)
	window := opt.scaled(12 * sim.Second)

	// Per (bench, thread count), a cell without ivh then one with it.
	ops := cells(opt, 2*len(benches)*len(threadCounts), func(i int, o Options) uint64 {
		c, d := ivhRig(o, core.Features{Vcap: true, Vact: true, IVH: i%2 == 1})
		spec, _ := workload.ByName(benches[i/(2*len(threadCounts))])
		return measureOps(c, spec.New(d.env(threadCounts[i/2%len(threadCounts)])), warm, window)
	})

	for b, bench := range benches {
		row := []string{bench}
		for t := range threadCounts {
			k := 2 * (b*len(threadCounts) + t)
			off, on := ops[k], ops[k+1]
			imp := 100 * (float64(on)/float64(off) - 1)
			row = append(row, fmt.Sprintf("%+.0f%%", imp))
		}
		rep.Add(row...)
	}
	rep.Notef("paper: up to +82%% at low thread counts, +17%% average at 16 threads")
	return rep
}

// Table4 reproduces the canneal ablation (§5.5): execution time with
// activity-aware vs activity-unaware ivh.
func Table4(opt Options) *Report {
	rep := &Report{
		ID:     "table4",
		Title:  "Canneal execution time (s) and misplaced-stall time, ivh activity-aware vs unaware",
		Header: []string{"host/threads", "unaware", "aware", "speedup", "stall-unaware", "stall-aware"},
	}
	totalIters := 1600
	if opt.Scale < 1 {
		totalIters = int(float64(totalIters) * opt.Scale)
		if totalIters < 64 {
			totalIters = 64
		}
	}

	type result struct {
		secs  float64
		stall sim.Duration
	}
	run := func(o Options, threads int, aware, slowWake bool) result {
		feats := core.Features{Vcap: true, Vact: true, IVH: true}
		c, d := ivhRig(o, feats)
		if slowWake {
			// High-wake-latency host (granularities cranked like the
			// latency experiments): a mis-targeted migration parks the task
			// for several ms, which is where activity awareness pays.
			for i := 0; i < 16; i++ {
				c.h.Thread(i).SetGranularities(5*sim.Millisecond, 10*sim.Millisecond)
			}
		}
		d.vs.SetIVHActivityAware(aware)
		// Let the probers learn activity before launching (the paper's runs
		// are long enough that the learning phase is negligible; ours are
		// scaled down).
		c.eng.RunFor(4 * sim.Second)
		start := c.eng.Now()
		p := workload.NewParallel(d.env(threads), workload.ParallelSpec{
			Name: "canneal", IterWork: 1 * sim.Millisecond, Imbalance: 0.2,
			Sync: workload.SyncLock, CritFrac: 0.15,
			Iterations: totalIters / threads,
		})
		p.Start()
		for i := 0; i < 10000 && !p.Done(); i++ {
			c.eng.RunFor(100 * sim.Millisecond)
		}
		var stall sim.Duration
		for _, tk := range p.Tasks() {
			stall += tk.TotalQueueLatency()
		}
		return result{p.FinishedAt.Sub(start).Seconds(), stall}
	}

	// Per (host, thread count), an activity-unaware cell then an aware one.
	slowWakes := []bool{false, true}
	threadCounts := []int{1, 2, 4, 8, 16}
	res := cells(opt, 2*len(slowWakes)*len(threadCounts), func(i int, o Options) result {
		return run(o, threadCounts[i/2%len(threadCounts)], i%2 == 1, slowWakes[i/(2*len(threadCounts))])
	})

	for w, slowWake := range slowWakes {
		tag := "fast-wake host"
		if slowWake {
			tag = "slow-wake host"
		}
		for t, th := range threadCounts {
			k := 2 * (w*len(threadCounts) + t)
			un, aw := res[k], res[k+1]
			rep.Add(fmt.Sprintf("%s/%d", tag, th), f2(un.secs), f2(aw.secs), fmt.Sprintf("%.2fx", un.secs/aw.secs),
				un.stall.String(), aw.stall.String())
		}
	}
	rep.Notef("paper: activity-aware ivh beats unaware at every thread count (408s vs 348s at 1 thread).")
	rep.Notef("activity awareness pays when host wake latency is high (slow-wake rows) — a mis-targeted migration parks the task for milliseconds; on a fast-wake host both variants converge (see EXPERIMENTS.md)")
	return rep
}
