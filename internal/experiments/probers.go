package experiments

import (
	"fmt"

	"vsched/internal/cachemodel"
	"vsched/internal/core"
	"vsched/internal/host"
	"vsched/internal/sim"
)

// Fig10a reproduces the EMA-capacity trace (§5.2): a vCPU's capacity is
// manually stepped and spiked while vcap probes it; the report compares the
// configured ("actual") capacity against the probed EMA over time.
func Fig10a(opt Options) *Report {
	rep := &Report{
		ID:     "fig10a",
		Title:  "Actual vs probed EMA capacity over time",
		Header: []string{"t(s)", "actual", "ema", "abs-err"},
	}
	c := newFlatCluster(opt, 1, 2, 1)
	d := deployFeatures(c, "vm", c.firstThreads(1), core.Features{Vcap: true, Vact: true})
	th := c.h.Thread(0)

	// Scripted capacity: 100% -> 50% (t=30s) -> brief spike down (t=60s,
	// 3s) -> 75% (t=90s) -> 100% (t=120s). Durations scale with opt.
	seg := opt.scaled(30 * sim.Second)
	spikeLen := opt.scaled(3 * sim.Second)
	var contender *host.PatternContender
	setShare := func(share float64) {
		if contender != nil {
			contender.Stop()
			contender = nil
		}
		if share < 0.999 {
			on := 5 * sim.Millisecond
			off := sim.Duration(float64(on) * share / (1 - share))
			contender = dutyContender(c, th, on, off, 0)
		}
	}
	actual := func(t sim.Time) float64 {
		switch {
		case t < sim.Time(seg):
			return 1024
		case t < sim.Time(2*seg):
			return 512
		case t >= sim.Time(2*seg) && t < sim.Time(2*seg)+sim.Time(spikeLen):
			return 100
		case t < sim.Time(3*seg):
			return 512
		case t < sim.Time(4*seg):
			return 768
		default:
			return 1024
		}
	}
	c.eng.After(seg, func() { setShare(0.5) })
	c.eng.After(2*seg, func() { setShare(0.1) })
	c.eng.After(2*seg+spikeLen, func() { setShare(0.5) })
	c.eng.After(3*seg, func() { setShare(0.75) })
	c.eng.After(4*seg, func() { setShare(1.0) })

	total := 5 * seg
	samples := 25
	var sumErr float64
	for i := 1; i <= samples; i++ {
		c.eng.RunFor(sim.Duration(int64(total) / int64(samples)))
		now := c.eng.Now()
		act := actual(now)
		ema := float64(d.vm.VCPU(0).Capacity())
		err := ema - act
		if err < 0 {
			err = -err
		}
		sumErr += err
		rep.Add(f1(now.Seconds()), f1(act), f1(ema), f1(err))
	}
	rep.Notef("mean abs error = %.0f capacity units (spikes are smoothed by design)", sumErr/float64(samples))
	return rep
}

// Fig10b reproduces the probed cache-line transfer latency matrix (§5.2)
// for an 8-vCPU VM with all topology levels: two SMT pairs in socket 0, one
// SMT pair and one stacked pair in socket 1.
func Fig10b(opt Options) *Report {
	rep := &Report{
		ID:    "fig10b",
		Title: "Probed cache line transfer latency matrix (ns; inf = stacked)",
	}
	c := newCluster(opt, 2, 2, 2)
	threads := []*host.Thread{
		c.h.ThreadAt(0, 0, 0), c.h.ThreadAt(0, 0, 1),
		c.h.ThreadAt(0, 1, 0), c.h.ThreadAt(0, 1, 1),
		c.h.ThreadAt(1, 0, 0), c.h.ThreadAt(1, 0, 1),
		c.h.ThreadAt(1, 1, 0), c.h.ThreadAt(1, 1, 0),
	}
	d := deployFeatures(c, "vm", threads, core.Features{Vtop: true})
	// Let vtop's bootstrap full probe finish before the exhaustive pass.
	c.eng.RunFor(5 * sim.Second)
	var matrix [][]int64
	done := false
	d.vs.Vtop().ProbeAllPairs(func(m [][]int64, took sim.Duration) {
		matrix = m
		done = true
		rep.Notef("exhaustive 8x8 probe took %v", took)
	})
	c.eng.RunFor(opt.scaled(60 * sim.Second))
	if !done || matrix == nil {
		rep.Notef("probe did not finish in budget")
		return rep
	}
	rep.Header = append([]string{"vCPU"}, nums(8)...)
	for i := 0; i < 8; i++ {
		row := []string{fmt.Sprintf("%d", i)}
		for j := 0; j < 8; j++ {
			switch {
			case i == j:
				row = append(row, "0")
			case matrix[i][j] == cachemodel.Infinite:
				row = append(row, "inf")
			default:
				row = append(row, fmt.Sprintf("%d", matrix[i][j]))
			}
		}
		rep.Add(row...)
	}
	return rep
}

func nums(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}

// Table2 reproduces the vtop probing-time table (§5.2): full probe vs
// validation on rcvm and hpvm.
func Table2(opt Options) *Report {
	rep := &Report{
		ID:     "table2",
		Title:  "vtop probing time (ms)",
		Header: []string{"config", "full", "validate"},
	}
	vms := []struct {
		name string
		mk   func(Options) (*cluster, []*host.Thread)
	}{{"rcvm", rcvmCluster}, {"hpvm", hpvmCluster}}
	rows := cells(opt, len(vms), func(i int, o Options) []string {
		c, threads := vms[i].mk(o)
		d := deployFeatures(c, vms[i].name, threads, core.Features{Vtop: true})
		vt := d.vs.Vtop()
		// Let the bootstrap full probe and at least one validation pass run.
		c.eng.RunFor(30 * sim.Second)
		return []string{vms[i].name,
			fmt.Sprintf("%.0f", vt.LastFullTime().Milliseconds()),
			fmt.Sprintf("%.0f", vt.LastValidateTime().Milliseconds())}
	})
	for _, row := range rows {
		rep.Add(row...)
	}
	rep.Notef("paper: rcvm 547/388, hpvm 665/160 — shapes to preserve: sub-second; validate < full; stacking confirmation dominates rcvm validation")
	return rep
}
