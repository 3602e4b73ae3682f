package experiments

import (
	"fmt"
	"sort"

	"vsched/internal/host"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/workload"
)

// Fig16 reproduces the adaptability experiment (§5.7): a 16-vCPU VM serving
// nginx while the host moves through four phases — dedicated,
// overcommitted, asymmetric-capacity, and resource-constrained (stacking +
// near-dead vCPUs). vSched re-probes and adapts within seconds.
func Fig16(opt Options) *Report {
	rep := &Report{
		ID:     "fig16",
		Title:  "Nginx throughput through host phase changes (req/s, phase averages)",
		Header: []string{"phase", "CFS", "vSched", "vSched/CFS"},
	}
	phase := opt.scaled(25 * sim.Second)
	phaseNames := []string{"dedicated", "overcommitted", "asymmetric", "constrained"}

	cfgs := []Config{CFS, VSched}
	series := cells(opt, len(cfgs), func(i int, o Options) *metrics.TimeSeries {
		cfg := cfgs[i]
		c := newFlatCluster(o, 1, 16, 1)
		d := deploy(c, "vm", c.firstThreads(16), cfg)
		// Moderate closed-loop concurrency: roughly half the vCPUs busy at
		// a time, so unused vCPU shares exist for ivh to harvest when the
		// host becomes contended.
		srv := workload.NewServer(d.env(0), workload.ServerConfig{
			Name: "nginx", Workers: 8,
			ServiceMean: 1500 * sim.Microsecond, ServiceJit: 0.25,
			Connections: 16, Sticky: true,
			FootprintMB: 1.5,
		})
		srv.Start()

		// Co-tenant VM modelled as per-core CFS stressors whose weights set
		// each vCPU's fair share; a phase change re-weights or removes them.
		var contenders []*host.Entity
		clear := func() {
			for _, e := range contenders {
				e.Block()
			}
			contenders = nil
		}
		stress := func(i int, weight int64) {
			contenders = append(contenders,
				host.NewStressor(c.h, "tenant", c.h.Thread(i), weight))
		}
		// Phase 2: overcommitted — every vCPU shares 50% of its core.
		c.eng.At(sim.Time(phase), func() {
			for i := 0; i < 16; i++ {
				stress(i, host.DefaultWeight)
			}
		})
		// Phase 3: asymmetric — half the vCPUs get a 2x share of the rest,
		// same total: weight 512 leaves the vCPU 2/3, weight 2048 leaves 1/3.
		c.eng.At(sim.Time(2*phase), func() {
			clear()
			for i := 0; i < 16; i++ {
				w := int64(512)
				if i >= 8 {
					w = 2048
				}
				stress(i, w)
			}
		})
		// Phase 4: constrained — stack vCPU1 onto vCPU0's core, starve vCPUs
		// 2 and 3 (weight 10240 leaves them ~9%), halve the rest.
		c.eng.At(sim.Time(3*phase), func() {
			clear()
			d.vm.VCPU(1).Entity().Migrate(c.h.Thread(0))
			for _, i := range []int{2, 3} {
				stress(i, 10*host.DefaultWeight)
			}
			for i := 4; i < 16; i++ {
				stress(i, host.DefaultWeight)
			}
		})

		ts := &metrics.TimeSeries{}
		last := uint64(0)
		bucket := o.scaled(1 * sim.Second)
		var sample func()
		sample = func() {
			ops := srv.Ops()
			ts.Append(c.eng.Now().Seconds(), float64(ops-last)/bucket.Seconds())
			last = ops
			c.eng.After(bucket, sample)
		}
		c.eng.After(bucket, sample)
		c.eng.RunFor(4 * phase)
		return ts
	})

	cfs, vs := series[0], series[1]
	for i, name := range phaseNames {
		t0 := float64(i) * phase.Seconds()
		t1 := t0 + phase.Seconds()
		// Skip the first fifth of each phase (transition).
		t0 += phase.Seconds() / 5
		a, b := cfs.MeanBetween(t0, t1), vs.MeanBetween(t0, t1)
		rep.Add(name, f1(a), f1(b), f2(b/a))
	}
	rep.Notef("paper: equal when dedicated; vSched holds throughput when overcommitted (ivh) and constrained (rwc)")
	return rep
}

// Fig17 reproduces the multi-tenant experiment (§5.8): an nginx VM shares
// 16 cores with co-located VMs generating intermittent (facesim+ferret),
// consistent (swaptions+raytrace) and transient (four latency apps)
// interference. vSched lifts nginx QoS at negligible cost to the neighbours.
func Fig17(opt Options) *Report {
	rep := &Report{
		ID:     "fig17",
		Title:  "Multi-tenant QoS: nginx throughput per interference phase",
		Header: []string{"phase", "nginx CFS", "nginx vSched", "gain", "neighbour degradation"},
	}
	phase := opt.scaled(40 * sim.Second)
	warmFrac := 0.25

	// A cell's result: nginx's throughput series and each co-located
	// workload's ops over its phase.
	type result struct {
		ts    *metrics.TimeSeries
		nbOps map[string]uint64
	}
	cfgs := []Config{CFS, VSched}
	res := cells(opt, len(cfgs), func(i int, o Options) result {
		cfg := cfgs[i]
		c := newFlatCluster(o, 1, 16, 1)
		// The nginx VM and every co-located VM pin vCPU i on core i: cores
		// are time-shared between tenants, the multi-tenant norm.
		nginxD := deploy(c, "nginx-vm", c.firstThreads(16), cfg)
		srv := workload.NewServer(nginxD.env(0), workload.ServerConfig{
			Name: "nginx", Workers: 8,
			ServiceMean: 1500 * sim.Microsecond, ServiceJit: 0.25,
			Connections: 16, Sticky: true,
			FootprintMB: 1.5,
		})
		srv.Start()

		nbOps := map[string]uint64{}
		mkVM := func(name string) *deployment {
			return deploy(c, name, c.firstThreads(16), CFS)
		}
		countOps := func(name string, inst workload.Instance, until sim.Time) {
			c.eng.At(until, func() { nbOps[name] += inst.Ops() })
		}

		// Phase 1: facesim + ferret (intermittent).
		vmA, vmB := mkVM("vmA"), mkVM("vmB")
		fsSpec, _ := workload.ByName("facesim")
		frSpec, _ := workload.ByName("ferret")
		fs := fsSpec.New(workload.Env{VM: vmA.vm, Threads: 16, Nominal: 2.0})
		fr := frSpec.New(workload.Env{VM: vmB.vm, Threads: 16, Nominal: 2.0})
		fs.Start()
		fr.Start()
		countOps("facesim", fs, sim.Time(phase))
		countOps("ferret", fr, sim.Time(phase))
		c.eng.At(sim.Time(phase), func() {
			fs.(*workload.Parallel).Stop()
			fr.(*workload.Pipeline).Stop()
		})

		// Phase 2: swaptions + raytrace (consistent).
		c.eng.At(sim.Time(phase), func() {
			vmC, vmD := mkVM("vmC"), mkVM("vmD")
			swSpec, _ := workload.ByName("swaptions")
			rtSpec, _ := workload.ByName("raytrace")
			sw := swSpec.New(workload.Env{VM: vmC.vm, Threads: 16, Nominal: 2.0})
			rt := rtSpec.New(workload.Env{VM: vmD.vm, Threads: 16, Nominal: 2.0})
			sw.Start()
			rt.Start()
			countOps("swaptions", sw, sim.Time(2*phase))
			countOps("raytrace", rt, sim.Time(2*phase))
			c.eng.At(sim.Time(2*phase), func() {
				sw.(*workload.Parallel).Stop()
				rt.(*workload.Parallel).Stop()
			})
		})

		// Phase 3: four latency-sensitive VMs (transient).
		c.eng.At(sim.Time(2*phase), func() {
			for i, name := range []string{"img-dnn", "silo", "masstree", "specjbb"} {
				vmX := mkVM(fmt.Sprintf("vmL%d", i))
				spec, _ := workload.ByName(name)
				inst := spec.New(workload.Env{VM: vmX.vm, Threads: 16, Nominal: 2.0})
				inst.Start()
				countOps(name, inst, sim.Time(3*phase))
			}
		})

		ts := &metrics.TimeSeries{}
		last := uint64(0)
		bucket := o.scaled(1 * sim.Second)
		var sample func()
		sample = func() {
			ops := srv.Ops()
			ts.Append(c.eng.Now().Seconds(), float64(ops-last)/bucket.Seconds())
			last = ops
			c.eng.After(bucket, sample)
		}
		c.eng.After(bucket, sample)
		c.eng.RunFor(3 * phase)
		return result{ts, nbOps}
	})

	cfsTS, cfsNB := res[0].ts, res[0].nbOps
	vsTS, vsNB := res[1].ts, res[1].nbOps
	// Neighbours are summed in name order: float addition is not
	// associative, so map order would leak into the low bits.
	nbNames := make([]string, 0, len(cfsNB))
	for name := range cfsNB {
		nbNames = append(nbNames, name)
	}
	sort.Strings(nbNames)
	phaseNames := []string{"intermittent", "consistent", "transient"}
	for i, name := range phaseNames {
		t0 := float64(i)*phase.Seconds() + warmFrac*phase.Seconds()
		t1 := float64(i+1) * phase.Seconds()
		a, b := cfsTS.MeanBetween(t0, t1), vsTS.MeanBetween(t0, t1)
		// Neighbour degradation: how much less the co-located workloads got
		// done while nginx ran vSched instead of CFS.
		var deg float64
		var nn int
		for _, name2 := range nbNames {
			opsCFS := cfsNB[name2]
			if opsVS, ok := vsNB[name2]; ok && opsCFS > 0 {
				if phaseOf(name2) == i {
					deg += 1 - float64(opsVS)/float64(opsCFS)
					nn++
				}
			}
		}
		degStr := "n/a"
		if nn > 0 {
			degStr = fmt.Sprintf("%+.1f%%", 100*deg/float64(nn))
		}
		rep.Add(name, f1(a), f1(b), fmt.Sprintf("%+.0f%%", 100*(b/a-1)), degStr)
	}
	rep.Notef("paper: +15%% (intermittent), +24%% (consistent), parity (transient); neighbour cost <=2.1%%")
	return rep
}

func phaseOf(bench string) int {
	switch bench {
	case "facesim", "ferret":
		return 0
	case "swaptions", "raytrace":
		return 1
	default:
		return 2
	}
}
