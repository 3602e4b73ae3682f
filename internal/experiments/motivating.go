package experiments

import (
	"fmt"
	"math"

	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/workload"
)

// Fig2 reproduces the extended-runqueue-latency experiment (§2.3): p95 tail
// latency of latency-sensitive services as the vCPU latency grows from 2 to
// 16 ms at constant 50% capacity, with and without best-effort tasks.
func Fig2(opt Options) *Report {
	rep := &Report{
		ID:     "fig2",
		Title:  "p95 latency vs vCPU latency (normalized to 16ms; lower is better)",
		Header: []string{"bench", "best-effort", "vCPU-lat", "p95(ms)", "normalized"},
	}
	benches := []string{"img-dnn", "silo", "specjbb"}
	// The last latency, 16ms, is the normalization reference.
	lats := []sim.Duration{2 * sim.Millisecond, 4 * sim.Millisecond, 8 * sim.Millisecond, 16 * sim.Millisecond}
	warm := opt.scaled(2 * sim.Second)
	window := opt.scaled(10 * sim.Second)

	type cell struct {
		withBE bool
		bench  string
		L      sim.Duration
	}
	var specs []cell
	for _, withBE := range []bool{false, true} {
		for _, bench := range benches {
			for _, L := range lats {
				specs = append(specs, cell{withBE, bench, L})
			}
		}
	}
	p95 := cells(opt, len(specs), func(i int, o Options) int64 {
		s := specs[i]
		c := newFlatCluster(o, 2, 16, 1)
		d := deploy(c, "vm", c.firstThreads(32), CFS)
		// Per the paper's method: a CFS co-tenant stresses every core while
		// the host scheduling granularities are tuned to L, so each vCPU
		// keeps its 50% share but waits up to L to get (back) on CPU.
		for i := 0; i < 32; i++ {
			th := c.h.Thread(i)
			th.SetGranularities(s.L, 2*s.L)
			host.NewStressor(c.h, "tenant", th, host.DefaultWeight)
		}
		if s.withBE {
			spawnBestEffort(d)
		}
		spec, _ := workload.ByName(s.bench)
		srv := spec.New(d.env(0)).(*workload.Server)
		srv.Start()
		c.eng.RunFor(warm)
		srv.ResetStats()
		c.eng.RunFor(window)
		return srv.E2E().P95()
	})

	for k := 0; k < len(specs); k += len(lats) {
		ref := p95[k+len(lats)-1]
		for j, L := range lats {
			s := specs[k+j]
			beTag := "without"
			if s.withBE {
				beTag = "with"
			}
			rep.Add(s.bench, beTag, L.String(), msStr(p95[k+j]), pct(float64(p95[k+j])/float64(ref)))
		}
	}
	return rep
}

// Fig3 reproduces the stalled-running-task demonstration (§2.3): a single
// CPU-bound thread on a 4-vCPU VM whose vCPUs are inactive 5ms of every
// 10ms. Default CFS leaves it stalled half the time; proactive
// self-migration harvests the other vCPUs' active periods.
func Fig3(opt Options) *Report {
	rep := &Report{
		ID:     "fig3",
		Title:  "Proactive migration prevents the stalled running task",
		Header: []string{"mode", "progress", "vCPU-util", "timeline (60ms, # running . stalled)"},
	}
	window := opt.scaled(2 * sim.Second)

	type result struct {
		frac  float64
		strip string
	}
	res := cells(opt, 2, func(i int, o Options) result {
		migrate := i == 1
		c := newFlatCluster(o, 1, 4, 1)
		d := deploy(c, "vm", c.firstThreads(4), CFS)
		for i := 0; i < 4; i++ {
			halfDuty(c, c.h.Thread(i), 5*sim.Millisecond, i)
		}
		var tk *guest.Task
		if !migrate {
			tk = d.vm.Spawn("worker", func(sim.Time) guest.Segment {
				return guest.ComputeForever()
			}, guest.StartOn(0))
		} else {
			// Migration mode: hop to the vCPU with the longest remaining
			// active window every ~4ms of progress (the paper's
			// self-migrating thread knows the host pattern).
			best := func(now sim.Time) int {
				period := sim.Time(10 * sim.Millisecond)
				b, left := 0, sim.Time(-1)
				for i := 0; i < 4; i++ {
					phase := sim.Time(i) * sim.Time(2500*sim.Microsecond)
					pos := (now - phase) % period
					if pos < 0 {
						pos += period
					}
					if pos >= sim.Time(5*sim.Millisecond) {
						if l := period - pos; l > left {
							b, left = i, l
						}
					}
				}
				return b
			}
			step := 0
			tk = d.vm.Spawn("worker", func(now sim.Time) guest.Segment {
				step++
				if step%2 == 1 {
					return guest.Compute(4e6) // ~2ms at nominal 2c/ns
				}
				return guest.MigrateTo(best(now))
			}, guest.StartOn(0))
		}
		// Task-centric timeline: sample once per millisecond whether the
		// thread is really executing ('#'), stalled on an inactive vCPU
		// ('.'), or waiting on a runqueue (' ').
		var strip []byte
		stripFrom := sim.Time(window / 2)
		var sample func()
		sample = func() {
			if len(strip) < 60 {
				now := c.eng.Now()
				if now >= stripFrom {
					switch {
					case tk.State() == guest.TaskRunning && tk.CPU().Entity().State() == host.Running:
						strip = append(strip, '#')
					case tk.State() == guest.TaskRunning:
						strip = append(strip, '.')
					default:
						strip = append(strip, ' ')
					}
				}
				c.eng.After(sim.Millisecond, sample)
			}
		}
		c.eng.After(0, sample)
		c.eng.RunFor(window)
		return result{float64(tk.TotalRun()) / float64(window), string(strip)}
	})

	def, mig := res[0], res[1]
	rep.Add("default", pct(def.frac), pct(def.frac), def.strip)
	rep.Add("migration", pct(mig.frac), pct(mig.frac), mig.strip)
	rep.Notef("utilization ratio migration/default = %.2fx (paper: ~2x)", mig.frac/def.frac)
	return rep
}

// Fig4 reproduces the deficient-work-conservation experiments (§2.3):
// keeping problematic idle vCPUs (a straggler, stacked vCPUs, and vCPUs
// stacked against best-effort work) out of task placement beats strict work
// conservation.
func Fig4(opt Options) *Report {
	rep := &Report{
		ID:     "fig4",
		Title:  "Work-conserving vs non-work-conserving (NWC=100; higher is better)",
		Header: []string{"scenario", "bench", "WC", "NWC"},
	}
	benches := []string{"canneal", "dedup", "streamcluster"}
	warm := opt.scaled(1 * sim.Second)
	window := opt.scaled(8 * sim.Second)

	runStraggler := func(o Options, bench string, nwc bool) uint64 {
		c := newFlatCluster(o, 1, 16, 1)
		d := deploy(c, "vm", c.firstThreads(16), CFS)
		// One vCPU with ~5% capacity: a high-priority host task hogs core 15.
		catStraggler.apply(c, c.h.Thread(15))
		g := d.vm.NewGroup("bench")
		if nwc {
			mask := make([]bool, 16)
			for i := 0; i < 15; i++ {
				mask[i] = true
			}
			d.vm.SetGroupMask(g, mask)
		}
		env := d.env(16)
		env.Group = g
		spec, _ := workload.ByName(bench)
		return measureOps(c, spec.New(env), warm, window)
	}

	// 16 vCPUs stacked in pairs on 8 cores: vCPUs 2i and 2i+1 share core i.
	stackedDeploy := func(c *cluster) *deployment {
		var threads []*host.Thread
		for i := 0; i < 8; i++ {
			th := c.h.Thread(i)
			threads = append(threads, th, th)
		}
		return deploy(c, "vm", threads, CFS)
	}

	runStacked := func(o Options, bench string, nwc bool) uint64 {
		c := newFlatCluster(o, 1, 8, 1)
		d := stackedDeploy(c)
		g := d.vm.NewGroup("bench")
		if nwc {
			// Hide one vCPU of each stacking pair.
			mask := make([]bool, 16)
			for i := 0; i < 16; i += 2 {
				mask[i] = true
			}
			d.vm.SetGroupMask(g, mask)
		}
		env := d.env(16)
		env.Group = g
		spec, _ := workload.ByName(bench)
		return measureOps(c, spec.New(env), warm, window)
	}

	runPrioInv := func(o Options, bench string, nwc bool) uint64 {
		c := newFlatCluster(o, 1, 8, 1)
		d := stackedDeploy(c)
		// A best-effort workload occupies one vCPU of each stacking pair
		// (the odd ones).
		for i := 1; i < 16; i += 2 {
			d.vm.Spawn(fmt.Sprintf("be%d", i), func(sim.Time) guest.Segment {
				return guest.Compute(2e6)
			}, guest.WithIdlePolicy(), guest.WithAffinity(i))
		}
		g := d.vm.NewGroup("bench")
		if nwc {
			// Exclude the vCPUs NOT running the best-effort workload: the
			// benchmark shares vCPUs with sched_idle tasks (which yield
			// inside the guest) instead of stacking against them on the
			// host, where the hypervisor cannot see priorities.
			mask := make([]bool, 16)
			for i := 1; i < 16; i += 2 {
				mask[i] = true
			}
			d.vm.SetGroupMask(g, mask)
		}
		env := d.env(8)
		env.Group = g
		spec, _ := workload.ByName(bench)
		return measureOps(c, spec.New(env), warm, window)
	}

	// Per scenario and bench, a WC cell then an NWC cell.
	scenarios := []struct {
		name string
		run  func(Options, string, bool) uint64
	}{{"straggler", runStraggler}, {"stacking", runStacked}, {"stacking+prio-inv", runPrioInv}}
	ops := cells(opt, 2*len(scenarios)*len(benches), func(i int, o Options) uint64 {
		sc := scenarios[i/(2*len(benches))]
		return sc.run(o, benches[i/2%len(benches)], i%2 == 1)
	})

	for s, sc := range scenarios {
		for j, b := range benches {
			k := 2 * (s*len(benches) + j)
			wc, nwcOps := ops[k], ops[k+1]
			rep.Add(sc.name, b, pct(float64(wc)/float64(nwcOps)), "100%")
			if sc.name == "stacking+prio-inv" && opt.Verbose {
				rep.Notef("%s priority-inversion NWC/WC = %.1fx", b, float64(nwcOps)/math.Max(1, float64(wc)))
			}
		}
	}
	return rep
}
