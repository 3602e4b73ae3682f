package experiments

import (
	"fmt"

	"vsched/internal/core"
	"vsched/internal/guest"
	"vsched/internal/sim"
	"vsched/internal/workload"
)

// vcapOnly isolates the capacity prober (plus vact, which shares its
// sampling machinery) without any placement technique.
func vcapOnly() core.Features { return core.Features{Vcap: true, Vact: true} }

// vtopOnly isolates the topology prober.
func vtopOnly() core.Features { return core.Features{Vtop: true} }

// Fig11 reproduces the vcap experiments (§5.3): (a) with asymmetric
// capacity, accurate probing concentrates CPU-bound work on the fast vCPUs;
// (b) with symmetric capacity, it prevents the adverse migrations caused by
// idle vCPUs masquerading as full-capacity ones.
func Fig11(opt Options) *Report {
	rep := &Report{
		ID:     "fig11",
		Title:  "Capacity-aware scheduling with vcap",
		Header: []string{"scenario", "config", "fast-vCPU-time", "throughput", "migrations"},
	}
	warm := opt.warm(4 * sim.Second)
	window := opt.scaled(20 * sim.Second)

	type result struct {
		fastFrac        float64
		ops, migrations uint64
	}
	run := func(o Options, asymmetric, withVcap bool) result {
		c := newFlatCluster(o, 1, 16, 1)
		feats := core.Features{}
		if withVcap {
			feats = vcapOnly()
		}
		d := deployFeatures(c, "vm", c.firstThreads(16), feats)
		// Asymmetric: vCPUs 0..11 get a 30% share, 12..15 get 60% (2x) —
		// every vCPU is contended, as under host bandwidth control.
		// Symmetric: all at 50%.
		for i := 0; i < 16; i++ {
			share := 0.5
			if asymmetric {
				share = 0.3
				if i >= 12 {
					share = 0.6
				}
			}
			on := 5 * sim.Millisecond
			off := sim.Duration(float64(on) * share / (1 - share))
			dutyContender(c, c.h.Thread(i), on, off, sim.Duration(i)*1100*sim.Microsecond)
		}
		sb := workload.NewSysbench(d.env(4), 4)
		sb.Start()
		c.eng.RunFor(warm)
		opsBefore := sb.Ops()
		migBefore := d.vm.Stats().Migrations
		// Sample where the sysbench tasks execute.
		var fastSamples, totalSamples int
		sampler := func() {}
		sampler = func() {
			for _, tk := range sb.Tasks() {
				if tk.State() == guest.TaskRunning {
					totalSamples++
					if tk.CPU().ID() >= 12 {
						fastSamples++
					}
				}
			}
			c.eng.After(10*sim.Millisecond, sampler)
		}
		c.eng.After(0, sampler)
		c.eng.RunFor(window)
		frac := 0.0
		if totalSamples > 0 {
			frac = float64(fastSamples) / float64(totalSamples)
		}
		return result{frac, sb.Ops() - opsBefore, d.vm.Stats().Migrations - migBefore}
	}

	// Per scenario, a CFS cell then a CFS+vcap cell.
	scenarios := []struct {
		name string
		asym bool
	}{{"asymmetric", true}, {"symmetric", false}}
	res := cells(opt, 2*len(scenarios), func(i int, o Options) result {
		return run(o, scenarios[i/2].asym, i%2 == 1)
	})

	for s, scen := range scenarios {
		cfs, v := res[2*s], res[2*s+1]
		rep.Add(scen.name, "CFS", pct(cfs.fastFrac), fmt.Sprintf("%d", cfs.ops), fmt.Sprintf("%d", cfs.migrations))
		rep.Add(scen.name, "CFS+vcap", pct(v.fastFrac), fmt.Sprintf("%d", v.ops), fmt.Sprintf("%d", v.migrations))
		if scen.asym {
			rep.Notef("asymmetric: throughput +%.0f%% with vcap (paper: +32%%); fast-vCPU share %s -> %s (paper: 44%% -> 81%%)",
				100*(float64(v.ops)/float64(cfs.ops)-1), pct(cfs.fastFrac), pct(v.fastFrac))
		} else {
			rep.Notef("symmetric: migrations reduced %.0f%% with vcap (paper: 74%%); throughput +%.0f%% (paper: +4%%)",
				100*(1-float64(v.migrations)/float64(cfs.migrations)), 100*(float64(v.ops)/float64(cfs.ops)-1))
		}
	}
	return rep
}

// Fig12 reproduces the SMT-aware experiments (§5.3): with correct SMT
// topology, an underloaded system spreads hogs across idle cores instead of
// doubling up on siblings, and mixed workloads stop fighting for per-core
// resources.
func Fig12(opt Options) *Report {
	rep := &Report{
		ID:     "fig12",
		Title:  "SMT-aware scheduling with vtop",
		Header: []string{"scenario", "config", "metric", "value"},
	}
	warm := opt.warm(4 * sim.Second)
	window := opt.scaled(15 * sim.Second)

	// (a) Underloaded: 16 hogs on 32 vCPUs over 16 SMT pairs; count busy
	// cores.
	activeCores := func(o Options, withVtop bool) float64 {
		c := newCluster(o, 1, 16, 2)
		feats := core.Features{}
		if withVtop {
			feats = vtopOnly()
		}
		d := deployFeatures(c, "vm", c.firstThreads(32), feats)
		// Let vtop publish the topology before placement decisions matter.
		c.eng.RunFor(warm)
		sb := workload.NewSysbench(d.env(16), 16)
		sb.Start()
		c.eng.RunFor(warm / 2)
		var sum, n int
		sampler := func() {}
		sampler = func() {
			cores := map[int]bool{}
			for _, v := range d.vm.VCPUs() {
				if v.Curr() != nil && !v.GuestIdle() {
					th := v.Entity().Thread()
					cores[th.Socket()*100+th.Core()] = true
				}
			}
			sum += len(cores)
			n++
			c.eng.After(10*sim.Millisecond, sampler)
		}
		c.eng.After(0, sampler)
		c.eng.RunFor(window)
		return float64(sum) / float64(n)
	}

	// (b) Mixed workloads: matmul + {nginx, fio}, 16 threads each.
	mixed := func(o Options, other string, withVtop bool) (uint64, uint64) {
		c := newCluster(o, 1, 16, 2)
		feats := core.Features{}
		if withVtop {
			feats = vtopOnly()
		}
		d := deployFeatures(c, "vm", c.firstThreads(32), feats)
		c.eng.RunFor(warm)
		mm := workload.NewMatmul(d.env(16), 16)
		spec, _ := workload.ByName(other)
		oth := spec.New(d.env(16))
		mm.Start()
		oth.Start()
		c.eng.RunFor(warm / 2)
		m0, o0 := mm.Ops(), oth.Ops()
		c.eng.RunFor(window)
		return mm.Ops() - m0, oth.Ops() - o0
	}

	// Cells 0 and 1 are (a) without and with vtop; then per other workload
	// of (b), a CFS cell and a CFS+vtop cell.
	others := []string{"nginx", "fio"}
	type result struct {
		cores       float64
		matmul, oth uint64
	}
	res := cells(opt, 2+2*len(others), func(i int, o Options) result {
		if i < 2 {
			return result{cores: activeCores(o, i == 1)}
		}
		m, oth := mixed(o, others[(i-2)/2], i%2 == 1)
		return result{matmul: m, oth: oth}
	})

	rep.Add("underloaded", "CFS", "avg active cores", f1(res[0].cores))
	rep.Add("underloaded", "CFS+vtop", "avg active cores", f1(res[1].cores))
	rep.Notef("paper: 11-12 cores under CFS vs 15-16 with vtop")
	for j, other := range others {
		cfs, v := res[2+2*j], res[3+2*j]
		mCFS, oCFS, mV, oV := cfs.matmul, cfs.oth, v.matmul, v.oth
		rep.Add("mixed/"+other, "CFS", "matmul/other ops", fmt.Sprintf("%d / %d", mCFS, oCFS))
		rep.Add("mixed/"+other, "CFS+vtop", "matmul/other ops", fmt.Sprintf("%d / %d", mV, oV))
		rep.Notef("mixed %s: matmul %+.0f%%, %s %+.0f%% with vtop (paper: matmul +<=18%%, nginx +5%%, fio ~0%%)",
			other, 100*(float64(mV)/float64(mCFS)-1), other, 100*(float64(oV)/float64(oCFS)-1))
	}
	return rep
}

// Fig13 reproduces the LLC-aware experiment (§5.3): two instances of a
// communicating benchmark on a two-socket VM. Correct socket topology
// segregates each instance into one LLC domain: fewer IPIs, better
// cycles-per-op, higher throughput.
func Fig13(opt Options) *Report {
	rep := &Report{
		ID:     "fig13",
		Title:  "LLC-aware optimisation with vtop (per benchmark: tput, ops/Mcycle, IPIs)",
		Header: []string{"bench", "config", "throughput", "ops/Mcycle", "xsock-IPIs"},
	}
	warm := opt.warm(4 * sim.Second)
	window := opt.scaled(15 * sim.Second)

	type result struct {
		ops          uint64
		opsPerMcycle float64
		ipis         uint64
	}
	run := func(o Options, bench string, withVtop bool) (r result) {
		c := newCluster(o, 2, 8, 2)
		feats := core.Features{}
		if withVtop {
			feats = vtopOnly()
		}
		d := deployFeatures(c, "vm", c.firstThreads(32), feats)
		c.eng.RunFor(warm) // topology published before instance placement
		mk := func(env workload.Env) workload.Instance {
			if bench == "hackbench" {
				// Endless variant so the measurement window stays full.
				return workload.NewHackbench(env, 2, 2, 1<<30)
			}
			spec, _ := workload.ByName(bench)
			return spec.New(env)
		}
		// Launch the instances a moment apart, as separate program starts:
		// fork placement then lands each in the idler domain.
		instA := mk(d.env(8))
		instB := mk(d.env(8))
		instA.Start()
		c.eng.RunFor(300 * sim.Millisecond)
		instB.Start()
		c.eng.RunFor(warm / 2)
		o0 := instA.Ops() + instB.Ops()
		cy0 := d.vm.TotalCycles()
		ipi0 := d.vm.Stats().CrossIPIs
		c.eng.RunFor(window)
		r.ops = instA.Ops() + instB.Ops() - o0
		if cycles := d.vm.TotalCycles() - cy0; cycles > 0 {
			r.opsPerMcycle = float64(r.ops) / (cycles / 1e6)
		}
		r.ipis = d.vm.Stats().CrossIPIs - ipi0
		return r
	}

	// Per bench, a CFS cell then a CFS+vtop cell.
	benches := []string{"dedup", "nginx", "hackbench"}
	res := cells(opt, 2*len(benches), func(i int, o Options) result {
		return run(o, benches[i/2], i%2 == 1)
	})

	for j, bench := range benches {
		oC, ipcC, ipiC := res[2*j].ops, res[2*j].opsPerMcycle, res[2*j].ipis
		oV, ipcV, ipiV := res[2*j+1].ops, res[2*j+1].opsPerMcycle, res[2*j+1].ipis
		rep.Add(bench, "CFS", fmt.Sprintf("%d", oC), f2(ipcC), fmt.Sprintf("%d", ipiC))
		rep.Add(bench, "CFS+vtop", fmt.Sprintf("%d", oV), f2(ipcV), fmt.Sprintf("%d", ipiV))
		ipiNote := "n/a (none under CFS)"
		if ipiC > 0 {
			ipiNote = fmt.Sprintf("%+.0f%%", 100*(float64(ipiV)/float64(ipiC)-1))
		}
		rep.Notef("%s: tput %+.0f%%, ops/cycle %+.0f%%, IPIs %s with vtop (paper avg: +26%% tput, +14.5%% IPC, -99%% IPIs)",
			bench, 100*(float64(oV)/float64(oC)-1), 100*(ipcV/ipcC-1), ipiNote)
	}
	return rep
}
