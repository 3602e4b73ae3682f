package experiments

import (
	"fmt"

	"vsched/internal/sim"
	"vsched/internal/workload"
)

// overallCell is one (workload, config) cell of the overall evaluation:
// ops in the window, and for latency workloads p95 end-to-end latency.
type overallCell struct {
	ops uint64
	p95 int64
}

// runOverallOne measures one overallCell.
func runOverallOne(opt Options, build func(Options, Config) (*cluster, *deployment),
	spec workload.Spec, cfg Config, warm, window sim.Duration) overallCell {
	c, d := build(opt, cfg)
	inst := spec.New(d.env(d.vm.NumVCPUs()))
	inst.Start()
	c.eng.RunFor(warm)
	if srv, ok := inst.(*workload.Server); ok {
		srv.ResetStats()
		c.eng.RunFor(window)
		return overallCell{srv.Ops(), srv.E2E().P95()}
	}
	before := inst.Ops()
	c.eng.RunFor(window)
	return overallCell{ops: inst.Ops() - before}
}

// overall runs the full 31-workload × 3-configuration matrix of Figs. 18/19.
func overall(opt Options, id, title string, build func(Options, Config) (*cluster, *deployment)) *Report {
	rep := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"workload", "kind", "CFS", "EnhancedCFS", "vSched"},
	}
	warm := opt.warm(6 * sim.Second)
	window := opt.scaled(15 * sim.Second)

	// Per workload, throughput ones first, a cell for each configuration.
	tputNames := workload.Fig18ThroughputNames()
	names := append(append([]string(nil), tputNames...), workload.Fig18LatencyNames()...)
	cfgs := []Config{CFS, Enhanced, VSched}
	res := cells(opt, len(names)*len(cfgs), func(i int, o Options) overallCell {
		spec, _ := workload.ByName(names[i/len(cfgs)])
		return runOverallOne(o, build, spec, cfgs[i%len(cfgs)], warm, window)
	})

	var tputE, tputV, latE, latV []float64
	for j, name := range names {
		c, e, v := res[j*len(cfgs)], res[j*len(cfgs)+1], res[j*len(cfgs)+2]
		if j < len(tputNames) {
			nE := float64(e.ops) / float64(c.ops)
			nV := float64(v.ops) / float64(c.ops)
			tputE = append(tputE, nE)
			tputV = append(tputV, nV)
			rep.Add(name, "tput", "100%", pct(nE), pct(nV))
			continue
		}
		nE := float64(e.p95) / float64(c.p95)
		nV := float64(v.p95) / float64(c.p95)
		latE = append(latE, nE)
		latV = append(latV, nV)
		rep.Add(name, "p95", "100%", pct(nE), pct(nV))
	}
	rep.Notef("throughput vs CFS: enhanced %+.0f%%, vSched %+.0f%% (geo-ish mean)",
		100*(mean(tputE)-1), 100*(mean(tputV)-1))
	rep.Notef("latency reduction vs CFS: enhanced %.2fx, vSched %.2fx",
		1/mean(latE), 1/mean(latV))
	return rep
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig18 reproduces the rcvm overall results (§5.6).
func Fig18(opt Options) *Report {
	return overall(opt, "fig18",
		"rcvm: normalized throughput / p95 latency vs CFS (tput higher better, p95 lower better)",
		BuildRCVM)
}

// Fig19 reproduces the hpvm overall results (§5.6).
func Fig19(opt Options) *Report {
	return overall(opt, "fig19",
		"hpvm: normalized throughput / p95 latency vs CFS (tput higher better, p95 lower better)",
		BuildHPVM)
}

// Fig20 reproduces the cost analysis (§5.9): for a fixed amount of work,
// the total cycles the VM consumed (cost) and the cycles per second it
// sustained (vCPU utilisation) under CFS vs vSched, on both VM types.
// Throughput workloads run a fixed iteration budget to completion; latency
// workloads serve a fixed stream of requests.
func Fig20(opt Options) *Report {
	rep := &Report{
		ID:     "fig20",
		Title:  "vSched cost for fixed work: total cycles and cycles/second (CPS)",
		Header: []string{"vm", "workload", "config", "Gcycles", "CPS(G/s)"},
	}
	warm := opt.warm(4 * sim.Second)
	sendWindow := opt.scaled(15 * sim.Second)
	benches := []string{"bodytrack", "swaptions", "lu_cb", "img-dnn", "specjbb", "sphinx"}
	tputIters := int(200 * opt.Scale * 16)
	if tputIters < 64 {
		tputIters = 64
	}

	isLatency := func(bench string) bool { return bench == "img-dnn" || bench == "specjbb" || bench == "sphinx" }

	// Per (VM, bench), a CFS cell then a vSched cell; each returns
	// {Gcycles, CPS in G/s}.
	vmNames := []string{"hpvm", "rcvm"}
	cfgs := []Config{CFS, VSched}
	vals := cells(opt, len(vmNames)*len(benches)*len(cfgs), func(i int, o Options) [2]float64 {
		build := BuildHPVM
		if vmNames[i/(len(benches)*len(cfgs))] == "rcvm" {
			build = BuildRCVM
		}
		bench := benches[i/len(cfgs)%len(benches)]
		c, d := build(o, cfgs[i%len(cfgs)])
		c.eng.RunFor(warm)
		start := c.eng.Now()
		cy0 := d.vm.TotalCycles()
		var finished sim.Time
		if isLatency(bench) {
			// Fixed request stream, then drain.
			spec, _ := workload.ByName(bench)
			srv := spec.New(d.env(d.vm.NumVCPUs())).(*workload.Server)
			srv.Start()
			c.eng.RunFor(sendWindow)
			srv.Stop()
			c.eng.RunFor(o.scaled(2 * sim.Second)) // drain in-flight
			finished = c.eng.Now()
		} else {
			// Fixed iteration budget per thread.
			threads := d.vm.NumVCPUs()
			var spec workload.ParallelSpec
			for _, ps := range parallelSpecFor(bench) {
				spec = ps
			}
			spec.Iterations = tputIters / 4
			p := workload.NewParallel(d.env(threads), spec)
			p.Start()
			for step := 0; step < 100000 && !p.Done(); step++ {
				c.eng.RunFor(50 * sim.Millisecond)
			}
			finished = p.FinishedAt
		}
		cycles := d.vm.TotalCycles() - cy0
		elapsed := finished.Sub(start).Seconds()
		if elapsed <= 0 {
			elapsed = 1e-9
		}
		cps := cycles / elapsed
		return [2]float64{cycles / 1e9, cps / 1e9}
	})

	// Rows, then aggregate notes in the paper's terms.
	var tCyc, tCPS, lCyc, lCPS []float64
	for m, vmName := range vmNames {
		for b, bench := range benches {
			k := len(cfgs) * (m*len(benches) + b)
			for j, cfg := range cfgs {
				rep.Add(vmName, bench, cfg.String(), f2(vals[k+j][0]), f2(vals[k+j][1]))
			}
			c, v := vals[k], vals[k+1]
			dc := v[0]/c[0] - 1
			dp := v[1]/c[1] - 1
			if isLatency(bench) {
				lCyc = append(lCyc, dc)
				lCPS = append(lCPS, dp)
			} else {
				tCyc = append(tCyc, dc)
				tCPS = append(tCPS, dp)
			}
		}
	}
	rep.Notef("throughput workloads: cycles %+.1f%%, CPS %+.1f%% (paper: +5.5%% cycles, +38%% CPS)",
		100*meanDelta(tCyc), 100*meanDelta(tCPS))
	rep.Notef("latency workloads: cycles %+.1f%%, CPS %+.1f%% (paper: +50.5%% cycles, +81.4%% CPS)",
		100*meanDelta(lCyc), 100*meanDelta(lCPS))
	return rep
}

func meanDelta(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig21 reproduces the overhead analysis (§5.9): a dedicated symmetric VM
// where the default abstraction is already accurate, so vSched can only add
// overhead. Positive degradation = vSched worse.
func Fig21(opt Options) *Report {
	rep := &Report{
		ID:     "fig21",
		Title:  "Overhead on a dedicated VM (degradation vs CFS; lower is better)",
		Header: []string{"workload", "kind", "CFS", "vSched", "degradation"},
	}
	warm := opt.warm(4 * sim.Second)
	window := opt.scaled(15 * sim.Second)
	tputBenches := []string{"blackscholes", "bodytrack", "canneal", "dedup", "facesim",
		"streamcluster", "fft", "ocean_cp", "radix"}
	latBenches := []string{"img-dnn", "moses", "masstree", "silo", "shore", "specjbb",
		"sphinx", "xapian"}

	build := func(o Options, cfg Config) (*cluster, *deployment) {
		c := newFlatCluster(o, 1, 16, 1)
		return c, deploy(c, "vm", c.firstThreads(16), cfg)
	}

	// Per workload, throughput ones first, a CFS cell then a vSched cell.
	names := append(append([]string(nil), tputBenches...), latBenches...)
	cfgs := []Config{CFS, VSched}
	res := cells(opt, len(names)*len(cfgs), func(i int, o Options) overallCell {
		spec, _ := workload.ByName(names[i/len(cfgs)])
		return runOverallOne(o, build, spec, cfgs[i%len(cfgs)], warm, window)
	})

	var degs []float64
	for j, bench := range names {
		c, v := res[2*j], res[2*j+1]
		if j < len(tputBenches) {
			deg := 1 - float64(v.ops)/float64(c.ops)
			degs = append(degs, deg)
			rep.Add(bench, "tput", fmt.Sprintf("%d", c.ops), fmt.Sprintf("%d", v.ops),
				fmt.Sprintf("%+.1f%%", 100*deg))
			continue
		}
		deg := float64(v.p95)/float64(c.p95) - 1
		degs = append(degs, deg)
		rep.Add(bench, "p95", msStr(c.p95), msStr(v.p95), fmt.Sprintf("%+.1f%%", 100*deg))
	}
	rep.Notef("average degradation %.1f%% (paper: 0.7%%)", 100*meanDelta(degs))
	return rep
}

// parallelSpecFor returns the catalogue spec of a parallel kernel as a
// one-element slice (empty if the name is not a Parallel workload).
func parallelSpecFor(name string) []workload.ParallelSpec {
	switch name {
	case "bodytrack":
		return []workload.ParallelSpec{{Name: name, IterWork: 2 * sim.Millisecond, Imbalance: 0.30, Sync: workload.SyncBarrier}}
	case "swaptions":
		return []workload.ParallelSpec{{Name: name, IterWork: 8 * sim.Millisecond, Imbalance: 0.05, Sync: workload.SyncNone}}
	case "lu_cb":
		return []workload.ParallelSpec{{Name: name, IterWork: 2 * sim.Millisecond, Imbalance: 0.20, Sync: workload.SyncBarrier}}
	}
	return nil
}
