package core

import (
	"testing"

	"vsched/internal/cachemodel"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
)

// rig is a reusable experiment skeleton: a flat host (no turbo, speed 1.0 so
// nominal = measured), a VM over the first nvcpu threads, and a vSched
// instance.
type rig struct {
	eng *sim.Engine
	h   *host.Host
	vm  *guest.VM
	s   *VSched
}

func newRig(t *testing.T, sockets, cores, threadsPer, nvcpu int, feats Features) *rig {
	t.Helper()
	eng := sim.NewEngine(11)
	cfg := host.DefaultConfig()
	cfg.Sockets = sockets
	cfg.CoresPerSocket = cores
	cfg.ThreadsPerCore = threadsPer
	cfg.TurboFactor = 1.0
	cfg.BaseSpeed = 1.0
	h := host.New(eng, cfg)
	var threads []*host.Thread
	for i := 0; i < nvcpu; i++ {
		threads = append(threads, h.Thread(i))
	}
	vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, feats)
	return &rig{eng: eng, h: h, vm: vm, s: s}
}

// TestAttachCalibratesAndStarts: Attach reads the guest's nominal speed off
// the host's BaseSpeed (1 in newRig), keeps the other defaults and starts
// vSched. TestVcapMeasuresShareAndSpeed checks the capacities that follow.
func TestAttachCalibratesAndStarts(t *testing.T) {
	r := newRig(t, 1, 2, 1, 2, Features{Vcap: true, Vact: true})
	want := DefaultParams()
	want.NominalSpeed = 1
	if got := r.s.Params(); got != want {
		t.Fatalf("params %+v, want %+v", got, want)
	}
	if !r.s.started {
		t.Fatal("Attach returned an unstarted vSched")
	}
}

func TestVcapMeasuresShareAndSpeed(t *testing.T) {
	r := newRig(t, 1, 4, 1, 4, Features{Vcap: true, Vact: true})
	// vCPU1: 50% duty; vCPU2: half-speed thread; vCPU3: both.
	host.NewPatternContender(r.h, "p1", r.h.Thread(1), 5*sim.Millisecond, 5*sim.Millisecond, 0)
	r.h.Thread(2).SetSpeedFactor(0.5)
	r.h.Thread(3).SetSpeedFactor(0.5)
	host.NewPatternContender(r.h, "p3", r.h.Thread(3), 5*sim.Millisecond, 5*sim.Millisecond, 0)
	r.eng.RunFor(12 * sim.Second)
	approx := func(got int64, want, tol float64) bool {
		return float64(got) > want-tol && float64(got) < want+tol
	}
	if c := r.vm.VCPU(0).Capacity(); !approx(c, 1024, 120) {
		t.Fatalf("dedicated capacity=%d want ~1024", c)
	}
	if c := r.vm.VCPU(1).Capacity(); !approx(c, 512, 120) {
		t.Fatalf("50%%-duty capacity=%d want ~512", c)
	}
	if c := r.vm.VCPU(2).Capacity(); !approx(c, 512, 120) {
		t.Fatalf("half-speed capacity=%d want ~512", c)
	}
	if c := r.vm.VCPU(3).Capacity(); !approx(c, 256, 100) {
		t.Fatalf("half-speed 50%%-duty capacity=%d want ~256", c)
	}
	if !r.vm.VCPU(0).HasAccurateCapacity() {
		t.Fatal("vcap should publish capacities")
	}
}

func TestVactMeasuresVCPULatency(t *testing.T) {
	r := newRig(t, 1, 4, 1, 2, Features{Vcap: true, Vact: true})
	// 4ms inactive / 6ms active on vCPU1.
	host.NewPatternContender(r.h, "p", r.h.Thread(1), 4*sim.Millisecond, 6*sim.Millisecond, 0)
	r.eng.RunFor(12 * sim.Second)
	lat := r.vm.VCPU(1).Latency()
	if lat < 3*sim.Millisecond || lat > 5*sim.Millisecond {
		t.Fatalf("vCPU latency=%v want ~4ms", lat)
	}
	if lat0 := r.vm.VCPU(0).Latency(); lat0 > sim.Millisecond {
		t.Fatalf("dedicated vCPU latency=%v want ~0", lat0)
	}
	if a := r.vm.VCPU(1).AvgActive(); a < 4*sim.Millisecond || a > 8*sim.Millisecond {
		t.Fatalf("avg active=%v want ~6ms", a)
	}
}

func TestQueryState(t *testing.T) {
	r := newRig(t, 1, 4, 1, 2, Features{Vact: true, Vcap: true})
	// vCPU0 busy; vCPU1 idle.
	r.vm.Spawn("hog", func(sim.Time) guest.Segment { return guest.ComputeForever() },
		guest.WithAffinity(0))
	r.eng.RunFor(100 * sim.Millisecond)
	if st, _ := r.s.QueryState(r.vm.VCPU(0)); st != StateActive {
		t.Fatalf("busy running vCPU state=%v", st)
	}
	// vCPU1 runs only parked probers between windows: mostly idle.
	if st, _ := r.s.QueryState(r.vm.VCPU(1)); st != StateIdle {
		t.Fatalf("idle vCPU state=%v", st)
	}
	// Long preemption on vCPU0 -> stale heartbeat -> inactive.
	host.NewPatternContender(r.h, "p", r.h.Thread(0), 20*sim.Millisecond, 100*sim.Millisecond, 0)
	r.eng.RunFor(10 * sim.Millisecond)
	if st, _ := r.s.QueryState(r.vm.VCPU(0)); st != StateInactive {
		t.Fatalf("preempted vCPU state=%v", st)
	}
}

// fig10b-style topology: 8 vCPUs. Socket A: threads(0,0,0),(0,0,1),(0,1,0),
// (0,1,1) = two SMT pairs. Socket B: (1,0,0),(1,0,1) SMT pair; vCPU6,7
// stacked on (1,1,0).
func buildMixedTopo(t *testing.T, feats Features) *rig {
	t.Helper()
	eng := sim.NewEngine(23)
	cfg := host.DefaultConfig()
	cfg.Sockets = 2
	cfg.CoresPerSocket = 2
	cfg.ThreadsPerCore = 2
	cfg.TurboFactor = 1.0
	cfg.BaseSpeed = 1.0
	h := host.New(eng, cfg)
	threads := []*host.Thread{
		h.ThreadAt(0, 0, 0), h.ThreadAt(0, 0, 1),
		h.ThreadAt(0, 1, 0), h.ThreadAt(0, 1, 1),
		h.ThreadAt(1, 0, 0), h.ThreadAt(1, 0, 1),
		h.ThreadAt(1, 1, 0), h.ThreadAt(1, 1, 0), // stacked pair
	}
	vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, feats)
	return &rig{eng: eng, h: h, vm: vm, s: s}
}

func TestVtopDiscoversTopology(t *testing.T) {
	r := buildMixedTopo(t, Features{Vtop: true})
	r.eng.RunFor(3 * sim.Second)
	b := r.s.Vtop().Belief()
	if !b.SameCore(0, 1) || !b.SameCore(2, 3) || !b.SameCore(4, 5) {
		t.Fatalf("SMT pairs missed: %+v", b)
	}
	if b.SameCore(0, 2) {
		t.Fatal("cores 0/2 wrongly merged")
	}
	if !b.SameSocket(0, 3) || b.SameSocket(0, 4) {
		t.Fatalf("socket grouping wrong: %+v", b)
	}
	if !b.SameStack(6, 7) {
		t.Fatalf("stacking missed: %+v", b)
	}
	if b.SameStack(0, 1) {
		t.Fatal("SMT pair wrongly marked stacked")
	}
	if !b.SameSocket(4, 6) {
		t.Fatal("stacked pair's socket wrong")
	}
	if d := r.s.Vtop().LastFullTime(); d <= 0 || d > sim.Duration(1*sim.Second) {
		t.Fatalf("full probe time=%v want sub-second", d)
	}
	// The VM's scheduling domains were rebuilt.
	if !r.vm.Topology().SameCore(0, 1) {
		t.Fatal("belief not published to the VM")
	}
}

func TestVtopMatrixClasses(t *testing.T) {
	r := buildMixedTopo(t, Features{Vtop: true})
	r.eng.RunFor(3 * sim.Second)
	m := r.s.Vtop().Matrix()
	model := cachemodel.Default()
	if model.Classify(m[0][1]) != cachemodel.SMT {
		t.Fatalf("m[0][1]=%d not SMT-class", m[0][1])
	}
	if model.Classify(m[0][2]) != cachemodel.Socket {
		t.Fatalf("m[0][2]=%d not socket-class", m[0][2])
	}
	if model.Classify(m[0][4]) != cachemodel.Cross {
		t.Fatalf("m[0][4]=%d not cross-class", m[0][4])
	}
	if m[6][7] != cachemodel.Infinite {
		t.Fatalf("m[6][7]=%d want Infinite", m[6][7])
	}
}

func TestVtopValidationIsCheaperAndDetectsChange(t *testing.T) {
	r := buildMixedTopo(t, Features{Vtop: true})
	r.eng.RunFor(8 * sim.Second) // full probe + several validations
	vt := r.s.Vtop()
	if vt.validations == 0 {
		t.Fatal("no validations ran")
	}
	full, val := vt.LastFullTime(), vt.LastValidateTime()
	if val >= full {
		t.Fatalf("validation (%v) should be cheaper than full probe (%v)", val, full)
	}
	before := vt.FullProbes()
	// Migrate vCPU0's entity: un-pair it from vCPU1's core, cross socket.
	r.vm.VCPU(0).Entity().Migrate(r.h.ThreadAt(1, 1, 1))
	r.eng.RunFor(10 * sim.Second)
	if vt.FullProbes() <= before {
		t.Fatal("topology change not detected by validation")
	}
	if !r.s.Vtop().Belief().SameSocket(0, 4) {
		t.Fatalf("new socket of vCPU0 not discovered: %+v", r.s.Vtop().Belief())
	}
}

func TestRWCHidesStragglerAndStacked(t *testing.T) {
	r := buildMixedTopo(t, Features{Vcap: true, Vact: true, Vtop: true, RWC: true})
	// Make vCPU2 a straggler: RT contender with 95% duty.
	host.NewPatternContender(r.h, "hog", r.h.ThreadAt(0, 1, 0), 19*sim.Millisecond, 1*sim.Millisecond, 0)
	r.eng.RunFor(15 * sim.Second)
	user := r.s.UserGroup()
	if user.Allowed(2) {
		t.Fatalf("straggler vCPU2 should be hidden from user tasks (cap=%d)", r.vm.VCPU(2).Capacity())
	}
	// One of the stacked pair {6,7} must be banned even for best-effort.
	be := r.s.BEGroup()
	if be.Allowed(6) && be.Allowed(7) {
		t.Fatal("one stacked vCPU should be fully hidden")
	}
	if !be.Allowed(6) && !be.Allowed(7) {
		t.Fatal("rwc must keep one vCPU of the stack visible")
	}
	// Straggler stays open for best-effort work.
	if !be.Allowed(2) {
		t.Fatal("straggler should remain available to best-effort tasks")
	}
}

func TestBVSPicksLowLatencyVCPU(t *testing.T) {
	r := newRig(t, 1, 8, 1, 4, AllFeatures())
	// vCPU0,1: high latency (8ms); vCPU2,3: low latency (2ms). Same 50%
	// capacity everywhere.
	for i := 0; i < 2; i++ {
		host.NewPatternContender(r.h, "hi", r.h.Thread(i), 8*sim.Millisecond, 8*sim.Millisecond, 0)
	}
	for i := 2; i < 4; i++ {
		host.NewPatternContender(r.h, "lo", r.h.Thread(i), 2*sim.Millisecond, 2*sim.Millisecond, 0)
	}
	r.eng.RunFor(8 * sim.Second) // let probers learn
	placed := map[int]int{}
	step := 0
	var tk *guest.Task
	tk = r.vm.Spawn("ls", func(now sim.Time) guest.Segment {
		step++
		if step > 400 {
			return guest.Exit()
		}
		if step%2 == 1 {
			return guest.Sleep(3 * sim.Millisecond)
		}
		placed[tk.CPU().ID()]++
		return guest.Compute(5e4)
	}, guest.WithLatencySensitive(), guest.WithGroup(r.s.UserGroup()))
	r.eng.RunFor(5 * sim.Second)
	low := placed[2] + placed[3]
	high := placed[0] + placed[1]
	if low <= high*2 {
		t.Fatalf("bvs should prefer low-latency vCPUs: low=%d high=%d", low, high)
	}
}

func TestIVHHarvestsUnusedVCPUs(t *testing.T) {
	run := func(feats Features) float64 {
		eng := sim.NewEngine(31)
		cfg := host.DefaultConfig()
		cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 4, 1
		cfg.TurboFactor, cfg.BaseSpeed = 1.0, 1.0
		h := host.New(eng, cfg)
		var threads []*host.Thread
		for i := 0; i < 4; i++ {
			threads = append(threads, h.Thread(i))
		}
		vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
		vm.Start()
		s := Attach(vm, feats)
		for i := 0; i < 4; i++ {
			host.NewPatternContender(h, "p", h.Thread(i), 5*sim.Millisecond, 5*sim.Millisecond,
				sim.Duration(i)*2500*sim.Microsecond)
		}
		tk := vm.Spawn("worker", func(sim.Time) guest.Segment { return guest.ComputeForever() },
			guest.WithGroup(s.UserGroup()), guest.StartOn(0))
		eng.RunFor(20 * sim.Second)
		return float64(tk.TotalRun()) / float64(20*sim.Second)
	}
	baseline := run(Features{Vcap: true, Vact: true})
	with := run(Features{Vcap: true, Vact: true, IVH: true})
	if baseline > 0.62 {
		t.Fatalf("baseline should be ~0.5 (stalled half the time), got %.2f", baseline)
	}
	if with < baseline*1.25 {
		t.Fatalf("ivh should harvest idle vCPUs: baseline=%.2f with=%.2f", baseline, with)
	}
}

func TestIVHAbandonsWhenSourcePreempted(t *testing.T) {
	r := newRig(t, 1, 4, 1, 4, Features{Vcap: true, Vact: true, IVH: true})
	for i := 0; i < 4; i++ {
		host.NewPatternContender(r.h, "p", r.h.Thread(i), 5*sim.Millisecond, 5*sim.Millisecond,
			sim.Duration(i)*2500*sim.Microsecond)
	}
	r.vm.Spawn("worker", func(sim.Time) guest.Segment { return guest.ComputeForever() },
		guest.WithGroup(r.s.UserGroup()), guest.StartOn(0))
	r.eng.RunFor(20 * sim.Second)
	st := r.s.IVHStats()
	if st.Attempts == 0 || st.Migrated == 0 {
		t.Fatalf("ivh inert: %+v", st)
	}
	if st.Abandoned == 0 {
		t.Fatalf("expected some abandoned migrations under contention: %+v", st)
	}
	done := st.Migrated + st.Abandoned
	if done > st.Attempts || st.Attempts-done > 1 { // one may be in flight
		t.Fatalf("attempt accounting broken: %+v", st)
	}
}

func TestEMASmoothsCapacitySpikes(t *testing.T) {
	r := newRig(t, 1, 2, 1, 1, Features{Vcap: true, Vact: true})
	r.eng.RunFor(4 * sim.Second)
	before := r.vm.VCPU(0).Capacity()
	// One short spike of contention (300ms), then back to dedicated.
	host.NewPatternContender(r.h, "spike", r.h.Thread(0), 300*sim.Millisecond, 50*sim.Second, 100*sim.Millisecond)
	r.eng.RunFor(2 * sim.Second)
	after := r.vm.VCPU(0).Capacity()
	// EMA must not have collapsed to near zero from one spiky window.
	if after < before/3 {
		t.Fatalf("EMA overreacted to a spike: %d -> %d", before, after)
	}
	r.eng.RunFor(6 * sim.Second)
	if rec := r.vm.VCPU(0).Capacity(); rec < 900 {
		t.Fatalf("capacity did not recover: %d", rec)
	}
}

func TestFeatureSets(t *testing.T) {
	e := EnhancedCFS()
	if e.BVS || e.IVH || !e.Vcap || !e.Vtop || !e.Vact || !e.RWC {
		t.Fatalf("enhanced CFS features wrong: %+v", e)
	}
	a := AllFeatures()
	if !a.BVS || !a.IVH || !a.Vcap {
		t.Fatalf("all features wrong: %+v", a)
	}
}
