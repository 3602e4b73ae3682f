package main

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"vsched/internal/cachemodel"
	"vsched/internal/cloudgen"
	"vsched/internal/core"
	"vsched/internal/fleet"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/latprof"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
	"vsched/internal/vtrace"
	simwork "vsched/internal/workload"
)

// Fixtures are fixed micro scenarios a traced run times after its timed
// region. They isolate one layer's cost; their numbers are diagnostics that
// explain the end-to-end metrics, not claims of their own.

// fixtureReps is how many times a fixture repeats at a size; it reports the
// median.
func fixtureReps(size string) int {
	if size == "smoke" {
		return 1
	}
	return 5
}

// holdFixture times the engine's hold model exactly as internal/simbench's
// hold/pending=10000 scenario does: 1e4 events pending with that scenario's
// delay mix (~2% far-future timers up to 100 s, the rest within 10 ms), then
// each Step followed by one After, 2e6 times at full size and 2e4 at smoke as
// there. sim.hold_ns_per_event is thus 1e9 over that scenario's wheel
// events_per_sec in BENCH_core.json.
func holdFixture(size string, tr *tracer, parent int, layer map[string]float64) {
	s := tr.begin("sim.hold", parent)
	const pending = 10_000
	events := 2_000_000
	if size == "smoke" {
		events = 20_000
	}
	reps := fixtureReps(size)
	var per []float64
	for range reps {
		eng := sim.NewEngine(1)
		rng := eng.Rand()
		delay := func() sim.Duration {
			if rng.Int63n(50) == 0 {
				return sim.Duration(rng.Int63n(int64(100 * sim.Second)))
			}
			return sim.Duration(rng.Int63n(int64(10 * sim.Millisecond)))
		}
		fn := func() {}
		for range pending {
			eng.After(delay(), fn)
		}
		t0 := time.Now()
		for range events {
			eng.Step()
			eng.After(delay(), fn)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(events))
	}
	layer["sim.hold_ns_per_event"] = median(per)
	tr.end(s, map[string]float64{"events": float64(reps * events)})
}

// The layer ladder adds one layer per rung to one fixed scenario: the
// 16-vCPU, 50%-share, 3/6 ms-latency contended rig of the root package's
// benchmarks, running nginx for 1 s of warmup and 3 measured seconds.
//
//	rung 1 host:   16 co-tenant stressors plus 16 stressors standing in for the vCPUs
//	rung 2 guest:  a CFS VM in place of the stand-ins
//	rung 3 core:   vSched with AllFeatures on that VM
//	rung 4 vtrace: a vtrace ring on host and VM, a latprof profiler, a telemetry recorder
var rungNames = [...]string{1: "host", 2: "guest", 3: "core", 4: "vtrace"}

const (
	ladderWarmup  = sim.Second
	ladderMeasure = 3 * sim.Second
)

// runRung runs one rung and returns the measured window's wall time and
// engine events, plus the vtrace ring on rung 4.
func runRung(level int) (time.Duration, uint64, *vtrace.Tracer) {
	eng := sim.NewEngine(13)
	hc := host.DefaultConfig()
	hc.Sockets, hc.CoresPerSocket, hc.ThreadsPerCore = 1, 16, 1
	hc.SMTFactor, hc.TurboFactor = 1, 1
	h := host.New(eng, hc)
	threads := make([]*host.Thread, 16)
	for i := range threads {
		threads[i] = h.Thread(i)
	}
	var vm *guest.VM
	if level >= 2 {
		vm = guest.NewVM(h, "vm", threads, guest.DefaultParams())
		vm.Start()
	}
	for i, t := range threads {
		host.NewStressor(h, fmt.Sprintf("stressor-%d", i), t, host.DefaultWeight)
		lat := 6 * sim.Millisecond
		if i >= 8 {
			lat = 3 * sim.Millisecond
		}
		t.SetGranularities(lat, 2*lat)
		if level == 1 {
			host.NewStressor(h, fmt.Sprintf("vm/vcpu%d", i), t, host.DefaultWeight)
		}
	}
	var ring *vtrace.Tracer
	if level >= 2 {
		env := simwork.Env{VM: vm, Nominal: hc.BaseSpeed}
		if level >= 3 {
			p := core.DefaultParams()
			p.NominalSpeed = hc.BaseSpeed
			vs := core.New(vm, core.AllFeatures(), p, cachemodel.Default())
			vs.Start()
			env.Group, env.BEGroup = vs.UserGroup(), vs.BEGroup()
		}
		if level >= 4 {
			ring = vtrace.New(0)
			prof := latprof.New(latprof.Config{VM: "vm", NominalSpeed: hc.BaseSpeed})
			ring.SetObserver(prof.Observe)
			vtrace.AttachHost(ring, h)
			vm.SetTracer(ring)
			rec := telemetry.New(eng, telemetry.Config{})
			rec.AddSource("", telemetry.RegistrySource(vm.Metrics()))
			rec.Start()
		}
		simwork.NewNginx(env).Start()
	}
	eng.RunFor(ladderWarmup)
	f0, t0 := eng.Fired(), time.Now()
	eng.RunFor(ladderMeasure)
	return time.Since(t0), eng.Fired() - f0, ring
}

// ladderFixture runs rungs lo..hi (and rung lo-1 as the base of lo's self
// time) and reports each reported rung's stack cost, self cost over the
// previous rung, and events, all per simulated second. It returns rung 4's
// ring when that rung ran.
func ladderFixture(reps, lo, hi int, tr *tracer, parent int, layer map[string]float64) *vtrace.Tracer {
	var prev float64
	var ring *vtrace.Tracer
	for level := max(lo-1, 1); level <= hi; level++ {
		s := tr.begin("ladder."+rungNames[level], parent)
		var walls, events []float64
		for range reps {
			wall, ev, r := runRung(level)
			walls = append(walls, float64(wall.Nanoseconds())/ladderMeasure.Seconds())
			events = append(events, float64(ev)/ladderMeasure.Seconds())
			ring = r
		}
		stack := median(walls)
		if level >= lo {
			name := rungNames[level]
			layer[name+".stack_ns_per_simsec"] = stack
			layer[name+".self_ns_per_simsec"] = stack - prev
			layer[name+".events_per_simsec"] = median(events)
		}
		prev = stack
		tr.end(s, map[string]float64{"events": median(events) * ladderMeasure.Seconds() * float64(reps)})
	}
	return ring
}

// latprofFixture replays a ring's events into a fresh profiler in chunks and
// reports the median per-event fold cost.
func latprofFixture(ring *vtrace.Tracer, tr *tracer, parent int, layer map[string]float64) {
	s := tr.begin("latprof.replay", parent)
	const chunk = 1024
	events := ring.Events()
	p := latprof.New(latprof.Config{VM: "vm", NominalSpeed: host.DefaultConfig().BaseSpeed})
	var per []float64
	for i := 0; i+chunk <= len(events); i += chunk {
		t0 := time.Now()
		for _, ev := range events[i : i+chunk] {
			p.Observe(ev)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/chunk)
	}
	layer["latprof.observe_ns_p50"] = median(per)
	tr.end(s, map[string]float64{"events": float64(len(events))})
}

// indexFixture replays the cloud trace's arrivals and departures through a
// HostIndex the way the macro tier's least-loaded policy uses it: each
// arrival queries FirstFit and BestScore and commits BestScore's host, and
// each commitment change rewrites that host's leaf with Update. Every call is
// timed on its own, so the percentiles include the clock read.
func indexFixture(trace cloudgen.Trace, tr *tracer, parent int, layer map[string]float64) {
	s := tr.begin("fleet.index", parent)
	caps := make([]int, len(trace.Hosts))
	for i, h := range trace.Hosts {
		caps[i] = 2 * h.Threads // the macro tier's default overcommit
	}
	ix := fleet.NewHostIndex(caps)
	committed := make([]int, len(caps))
	var place, update []float64
	set := func(h, delta int) {
		committed[h] += delta
		t0 := time.Now()
		ix.Update(h, committed[h], float64(committed[h]))
		update = append(update, float64(time.Since(t0).Nanoseconds()))
	}
	var live departures
	for _, vm := range trace.VMs {
		for len(live) > 0 && live[0].at <= vm.At {
			d := heap.Pop(&live).(departure)
			set(d.host, -d.vcpus)
		}
		t0 := time.Now()
		ix.FirstFit(vm.VCPUs)
		t1 := time.Now()
		h := ix.BestScore(vm.VCPUs)
		t2 := time.Now()
		place = append(place, float64(t1.Sub(t0).Nanoseconds()), float64(t2.Sub(t1).Nanoseconds()))
		if h < 0 {
			continue
		}
		set(h, vm.VCPUs)
		life := vm.Lifetime
		if vm.Class == cloudgen.Batch {
			life = vm.Work
		}
		heap.Push(&live, departure{at: vm.At.Add(life), host: h, vcpus: vm.VCPUs})
	}
	sort.Float64s(place)
	sort.Float64s(update)
	layer["fleet.index.place_ns_p50"] = percentile(place, 50)
	layer["fleet.index.place_ns_p99"] = percentile(place, 99)
	layer["fleet.index.update_ns_p50"] = percentile(update, 50)
	layer["fleet.index.samples"] = float64(len(place))
	tr.end(s, map[string]float64{"events": float64(len(place) + len(update))})
}

// departure is a committed VM's release instant in the index replay.
type departure struct {
	at          sim.Time
	host, vcpus int
}

// departures is a min-heap of departures by instant.
type departures []departure

func (d departures) Len() int           { return len(d) }
func (d departures) Less(i, j int) bool { return d[i].at < d[j].at }
func (d departures) Swap(i, j int)      { d[i], d[j] = d[j], d[i] }
func (d *departures) Push(x any)        { *d = append(*d, x.(departure)) }
func (d *departures) Pop() any {
	old := *d
	x := old[len(old)-1]
	*d = old[:len(old)-1]
	return x
}
