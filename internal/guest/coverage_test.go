package guest

import (
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

func TestAccessorsAndStates(t *testing.T) {
	eng, h, vm := testSetup(t, 2, 2, 2, 8)
	if vm.Name() != "vm" || vm.NumVCPUs() != 8 || vm.Engine() != eng || vm.Host() != h {
		t.Fatal("basic accessors broken")
	}
	if vm.Params().TickPeriod != sim.Millisecond {
		t.Fatal("params accessor")
	}
	if vm.RootGroup().Name() != "root" {
		t.Fatal("root group name")
	}
	if !vm.RootGroup().Allowed(3) {
		t.Fatal("root group must allow all")
	}
	m := vm.RootGroup().AllowedMask()
	m[0] = false
	if !vm.RootGroup().Allowed(0) {
		t.Fatal("AllowedMask must be a copy")
	}
	if vm.Topology().SameSocket(0, 7) != true {
		t.Fatal("default belief is one socket")
	}
	for s, want := range map[TaskState]string{
		TaskSleeping: "sleeping", TaskRunnable: "runnable",
		TaskRunning: "running", TaskExited: "exited", TaskState(9): "invalid",
	} {
		if s.String() != want {
			t.Fatalf("state string %v", s)
		}
	}
	tk := vm.Spawn("w", func(sim.Time) Segment { return ComputeForever() },
		WithWeight(2048), WithLatencySensitive())
	eng.RunFor(5 * sim.Millisecond)
	if !tk.LatencySensitive || tk.ID() == 0 || tk.Name() != "w" {
		t.Fatal("task options lost")
	}
	if vm.TotalCycles() <= 0 {
		t.Fatal("cycles should accumulate")
	}
	if tk.Wakeups() == 0 || tk.TotalRun() == 0 {
		t.Fatal("task accounting missing")
	}
}

func TestSyncAccessors(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 1, 2)
	c := &Cond{}
	sem := NewSemaphore(2)
	b := NewBarrier(2)
	if b.Parties() != 2 {
		t.Fatal("barrier parties")
	}
	step := 0
	vm.Spawn("waiter", func(sim.Time) Segment {
		step++
		if step == 1 {
			return Wait(c)
		}
		return Exit()
	})
	eng.RunFor(2 * sim.Millisecond)
	if c.Waiters() != 1 {
		t.Fatalf("cond waiters=%d", c.Waiters())
	}
	vm.BroadcastCond(c)
	eng.RunFor(2 * sim.Millisecond)
	if c.Waiters() != 0 {
		t.Fatal("broadcast did not drain waiters")
	}
	if sem.Waiters() != 0 || sem.Count() != 2 {
		t.Fatal("sem accessors")
	}
	vm.Post(sem)
	if sem.Count() != 3 {
		t.Fatal("Post should increment with no waiters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) must panic")
		}
	}()
	NewBarrier(0)
}

func TestBalanceAcrossSockets(t *testing.T) {
	// Two believed sockets; pile tasks on socket 0 and verify cross-domain
	// balancing pushes some to socket 1.
	eng, _, vm := testSetup(t, 2, 2, 1, 4)
	b := DefaultBelief(4)
	b.SocketOf = []int{0, 0, 1, 1}
	vm.SetTopology(b)
	var tasks []*Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, vm.Spawn("hog",
			func(sim.Time) Segment { return ComputeForever() }, StartOn(i%2)))
	}
	eng.RunFor(300 * sim.Millisecond)
	other := 0
	for _, tk := range tasks {
		if tk.CPU().ID() >= 2 {
			other++
		}
	}
	if other == 0 {
		t.Fatal("cross-socket balancing never moved anything")
	}
	if vm.socketLoad(0) < vm.socketLoad(2) {
		t.Log("socket loads inverted (acceptable transient)")
	}
}

func TestSMTBalanceUnstacksHeavyPairs(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 2, 4)
	belief := DefaultBelief(4)
	belief.CoreOf = []int{0, 0, 1, 1} // matches the physical SMT pairs
	vm.SetTopology(belief)
	// Two hogs forced onto one core's two threads.
	a := vm.Spawn("a", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	bb := vm.Spawn("b", func(sim.Time) Segment { return ComputeForever() }, StartOn(1))
	eng.RunFor(500 * sim.Millisecond)
	coreA := vm.topo.CoreOf[a.CPU().ID()]
	coreB := vm.topo.CoreOf[bb.CPU().ID()]
	if coreA == coreB {
		t.Fatalf("SMT balance should separate two hogs, both on core %d", coreA)
	}
}

func TestKickVCPUWakesHalted(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 1, 2)
	v1 := vm.VCPU(1)
	eng.RunFor(5 * sim.Millisecond)
	if v1.Entity().State() != host.Blocked {
		t.Fatalf("idle vCPU should be halted, state=%v", v1.Entity().State())
	}
	ipis := vm.Stats().IPIs
	vm.KickVCPU(v1)
	if vm.Stats().IPIs != ipis+1 {
		t.Fatal("kick must count an IPI")
	}
	eng.RunFor(1 * sim.Millisecond)
	// With nothing to run it halts again.
	if v1.Entity().State() != host.Blocked {
		t.Fatalf("kicked idle vCPU should halt again, state=%v", v1.Entity().State())
	}
}

func TestDeliverIRQImmediateWhenActive(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 1, 1, 1)
	vm.Spawn("busy", func(sim.Time) Segment { return ComputeForever() })
	eng.RunFor(2 * sim.Millisecond)
	fired := false
	vm.DeliverIRQ(vm.VCPU(0), func() { fired = true })
	if !fired {
		t.Fatal("IRQ to an active vCPU must run synchronously")
	}
}

func TestCommDebtChargedOnCrossSocketWake(t *testing.T) {
	eng, _, vm := testSetup(t, 2, 2, 1, 4)
	b := DefaultBelief(4)
	b.SocketOf = []int{0, 0, 1, 1}
	vm.SetTopology(b)
	// Waker pinned on socket 0, wakee pinned on socket 1: every wake pays
	// the cross-socket penalty, slowing the wakee's compute.
	cv := &Cond{}
	step := 0
	vm.Spawn("waker", func(sim.Time) Segment {
		step++
		if step%2 == 1 {
			return Compute(2e5)
		}
		return Signal(cv)
	}, WithAffinity(0))
	wstep := 0
	wakee := vm.Spawn("wakee", func(sim.Time) Segment {
		wstep++
		if wstep%2 == 1 {
			return Wait(cv)
		}
		return Compute(1e5)
	}, WithAffinity(3))
	eng.RunFor(200 * sim.Millisecond)
	// Each wake adds CommPenaltyCross cycles: the wakee's measured on-CPU
	// time per iteration must exceed the nominal compute alone.
	perIter := float64(wakee.TotalRun()) / float64(wstep/2)
	nominal := 1e5 / 1.0 // cycles at speed 1
	if perIter < nominal*1.1 {
		t.Fatalf("cross-socket wake should add transfer cost: %.0f ns/iter vs %.0f nominal", perIter, nominal)
	}
}

func TestSpawnPanicsOnNilBehavior(t *testing.T) {
	_, _, vm := testSetup(t, 1, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil behavior must panic")
		}
	}()
	vm.Spawn("bad", nil)
}

func TestSetTopologyValidation(t *testing.T) {
	_, _, vm := testSetup(t, 1, 2, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched belief must panic")
		}
	}()
	vm.SetTopology(DefaultBelief(5))
}

func TestSetGroupMaskValidation(t *testing.T) {
	_, _, vm := testSetup(t, 1, 2, 1, 2)
	g := vm.NewGroup("g")
	defer func() {
		if recover() == nil {
			t.Fatal("empty mask must panic")
		}
	}()
	vm.SetGroupMask(g, []bool{false, false})
}

func TestLLCPressureSlowsColocatedHeavyTasks(t *testing.T) {
	run := func(footprint float64) sim.Duration {
		eng, _, vm := testSetup(t, 1, 4, 1, 4)
		done := 0
		var finish sim.Time
		for i := 0; i < 4; i++ {
			step := 0
			tk := vm.Spawn("mem", func(sim.Time) Segment {
				step++
				if step > 50 {
					return Exit()
				}
				return Compute(1e6)
			}, WithFootprint(footprint), StartOn(i))
			tk.OnExit = func(now sim.Time) {
				done++
				if done == 4 {
					finish = now
				}
			}
		}
		eng.RunFor(5 * sim.Second)
		if done != 4 {
			t.Fatal("workload did not finish")
		}
		return sim.Duration(finish)
	}
	small := run(1)  // 4 MB total: fits the 16 MB LLC
	large := run(12) // 48 MB total: 3x over -> sqrt(1/3) speed
	if float64(large) < float64(small)*1.4 {
		t.Fatalf("LLC pressure should slow the run: %v vs %v", small, large)
	}
}
