package guest

import (
	"math"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// testSetup builds a host with the given core layout (single-thread cores by
// default) and a VM with one vCPU per thread.
func testSetup(t *testing.T, sockets, cores, threadsPer int, nvcpu int) (*sim.Engine, *host.Host, *VM) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets = sockets
	cfg.CoresPerSocket = cores
	cfg.ThreadsPerCore = threadsPer
	cfg.TurboFactor = 1.0 // keep speeds flat unless a test wants DVFS
	cfg.BaseSpeed = 1.0   // 1 cycle per ns simplifies arithmetic
	h := host.New(eng, cfg)
	var threads []*host.Thread
	for i := 0; i < nvcpu; i++ {
		threads = append(threads, h.Thread(i))
	}
	vm := NewVM(h, "vm", threads, DefaultParams())
	vm.Start()
	return eng, h, vm
}

// recordWaits sets an observer tracer on vm that appends each wait of the
// task named name to waits: from a wakeup, or from a TaskOff that left the
// task runnable, to the task's next TaskOn.
func recordWaits(vm *VM, name string, waits *[]sim.Duration) {
	var since sim.Time
	vm.SetTracer(vtrace.NewObserver(func(ev vtrace.Event) {
		if ev.Subject != name {
			return
		}
		switch {
		case ev.Kind == vtrace.KindTaskWakeup, ev.Kind == vtrace.KindTaskOff && ev.A2 == 1:
			since = ev.At
		case ev.Kind == vtrace.KindTaskOn:
			*waits = append(*waits, ev.At.Sub(since))
		}
	}))
}

// loopCompute returns a behavior that computes `work` cycles `iters` times,
// then exits; done is set on exit.
func loopCompute(work float64, iters int, done *bool) Behavior {
	i := 0
	return func(now sim.Time) Segment {
		if i >= iters {
			if done != nil {
				*done = true
			}
			return Exit()
		}
		i++
		return Compute(work)
	}
}

func TestSingleTaskComputesAndExits(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 4, 1, 4)
	done := false
	var exitAt sim.Time
	tk := vm.Spawn("worker", loopCompute(1e6, 10, &done)) // 10ms of work at 1c/ns
	tk.OnExit = func(now sim.Time) { exitAt = now }
	eng.RunFor(50 * sim.Millisecond)
	if !done {
		t.Fatal("task did not finish")
	}
	if exitAt < sim.Time(10*sim.Millisecond) || exitAt > sim.Time(11*sim.Millisecond) {
		t.Fatalf("exit at %v, want ~10ms", exitAt)
	}
	if tk.TotalRun() < 10*sim.Millisecond-sim.Microsecond {
		t.Fatalf("totalRun=%v", tk.TotalRun())
	}
	if tk.State() != TaskExited || !tk.Exited() {
		t.Fatal("task state wrong after exit")
	}
}

func TestSleepTiming(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 1, 2)
	var wakeRuns []sim.Time
	step := 0
	vm.Spawn("sleeper", func(now sim.Time) Segment {
		step++
		switch step {
		case 1:
			return Sleep(5 * sim.Millisecond)
		case 2:
			wakeRuns = append(wakeRuns, now)
			return Sleep(7 * sim.Millisecond)
		case 3:
			wakeRuns = append(wakeRuns, now)
			return Exit()
		}
		return Exit()
	})
	eng.RunFor(30 * sim.Millisecond)
	if len(wakeRuns) != 2 {
		t.Fatalf("wakeups=%d", len(wakeRuns))
	}
	if wakeRuns[0] < sim.Time(5*sim.Millisecond) || wakeRuns[0] > sim.Time(6*sim.Millisecond) {
		t.Fatalf("first wake at %v", wakeRuns[0])
	}
	if d := wakeRuns[1] - wakeRuns[0]; d < sim.Time(7*sim.Millisecond) || d > sim.Time(8*sim.Millisecond) {
		t.Fatalf("second sleep lasted %v", d)
	}
}

func TestFairSharingOnOneVCPU(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 1, 1, 1)
	a := vm.Spawn("a", func(sim.Time) Segment { return ComputeForever() })
	b := vm.Spawn("b", func(sim.Time) Segment { return ComputeForever() })
	eng.RunFor(500 * sim.Millisecond)
	ra, rb := float64(a.TotalRun()), float64(b.TotalRun())
	if ra+rb < float64(490*sim.Millisecond) {
		t.Fatalf("vCPU underused: %v", ra+rb)
	}
	if r := ra / rb; r < 0.9 || r > 1.1 {
		t.Fatalf("unfair: %v vs %v", ra, rb)
	}
}

func TestSchedIdleYieldsToNormal(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 1, 1, 1)
	be := vm.Spawn("best-effort", func(sim.Time) Segment { return ComputeForever() }, WithIdlePolicy())
	eng.RunFor(10 * sim.Millisecond)
	if be.State() != TaskRunning {
		t.Fatal("idle task should run on an otherwise idle vCPU")
	}
	n := vm.Spawn("normal", func(sim.Time) Segment { return ComputeForever() })
	eng.RunFor(100 * sim.Millisecond)
	if n.State() != TaskRunning {
		t.Fatalf("normal task must dominate, state=%v", n.State())
	}
	// The idle-policy task should have received almost nothing since.
	if be.TotalRun() > 15*sim.Millisecond {
		t.Fatalf("sched_idle got too much: %v", be.TotalRun())
	}
	if u := n.Util(); u < 900 {
		t.Fatalf("cpu-bound util=%v want near 1024", u)
	}
}

func TestMutexBlockingAndFIFO(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 4, 1, 4)
	m := &Mutex{}
	order := []string{}
	mk := func(name string) Behavior {
		step := 0
		return func(now sim.Time) Segment {
			step++
			switch step {
			case 1:
				return Acquire(m)
			case 2:
				order = append(order, name)
				return Compute(2e6) // 2ms critical section
			case 3:
				return Release(m)
			default:
				return Exit()
			}
		}
	}
	vm.Spawn("t1", mk("t1"), StartOn(0))
	vm.Spawn("t2", mk("t2"), StartOn(1))
	vm.Spawn("t3", mk("t3"), StartOn(2))
	eng.RunFor(20 * sim.Millisecond)
	if len(order) != 3 {
		t.Fatalf("critical sections run: %v", order)
	}
	if m.Locked() {
		t.Fatal("mutex should end free")
	}
}

func TestSemaphoreProducerConsumer(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 1, 2)
	sem := NewSemaphore(0)
	consumed := 0
	vm.Spawn("consumer", func(now sim.Time) Segment {
		if consumed >= 5 {
			return Exit()
		}
		if consumed > 0 || sem.Count() >= 0 { // consume one per wait
		}
		consumed++
		return SemWait(sem)
	}, StartOn(0))
	prodStep := 0
	vm.Spawn("producer", func(now sim.Time) Segment {
		prodStep++
		if prodStep > 10 {
			return Exit()
		}
		if prodStep%2 == 1 {
			return Compute(1e5)
		}
		return SemPost(sem)
	}, StartOn(1))
	eng.RunFor(50 * sim.Millisecond)
	if consumed < 5 {
		t.Fatalf("consumed=%d", consumed)
	}
}

func TestBarrierReleasesAllParties(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 4, 1, 4)
	b := NewBarrier(3)
	passed := 0
	mk := func(work float64) Behavior {
		step := 0
		return func(now sim.Time) Segment {
			step++
			switch step {
			case 1:
				return Compute(work)
			case 2:
				return BarrierWait(b)
			case 3:
				passed++
				return Exit()
			}
			return Exit()
		}
	}
	vm.Spawn("fast", mk(1e5), StartOn(0))
	vm.Spawn("mid", mk(1e6), StartOn(1))
	vm.Spawn("slow", mk(5e6), StartOn(2))
	eng.RunFor(3 * sim.Millisecond)
	if passed != 0 {
		t.Fatal("barrier released early")
	}
	eng.RunFor(10 * sim.Millisecond)
	if passed != 3 {
		t.Fatalf("passed=%d", passed)
	}
	if b.Arrived() != 0 {
		t.Fatal("barrier not reset")
	}
}

func TestSpinLockBurnsCPUAndLHPEmerges(t *testing.T) {
	eng, h, vm := testSetup(t, 1, 2, 1, 2)
	m := &Mutex{}
	holderSteps, spinnerGot := 0, false
	holder := func(now sim.Time) Segment {
		holderSteps++
		switch holderSteps {
		case 1:
			return AcquireSpin(m)
		case 2:
			return Compute(20e6) // long critical section: 20ms
		case 3:
			return Release(m)
		}
		return Exit()
	}
	spinner := func(now sim.Time) Segment {
		if m.Owner() != nil || spinnerGot {
			if spinnerGot {
				return Exit()
			}
		}
		switch {
		case !spinnerGot:
			spinnerGot = true
			return AcquireSpin(m)
		}
		return Exit()
	}
	vm.Spawn("holder", holder, StartOn(0))
	eng.RunFor(1 * sim.Millisecond)
	sp := vm.Spawn("spinner", spinner, StartOn(1))
	// Preempt the holder's vCPU with an RT contender: the spinner now burns
	// CPU while the lock holder is stalled — lock-holder preemption.
	host.NewPatternContender(h, "noisy", h.Thread(0), 10*sim.Millisecond, 100*sim.Millisecond, 2*sim.Millisecond)
	eng.RunFor(5 * sim.Millisecond)
	if sp.State() != TaskRunning {
		t.Fatalf("spinner should be burning CPU, state=%v", sp.State())
	}
	if m.Owner() == nil || m.Owner().Name() != "holder" {
		t.Fatal("holder should still own the lock while stalled")
	}
	eng.RunFor(60 * sim.Millisecond)
	if m.Owner() != nil && m.Owner().Name() == "holder" {
		t.Fatal("lock never handed over")
	}
}

func TestExtendedRunqueueLatency(t *testing.T) {
	// A task woken while its vCPU is preempted waits out the inactive
	// period: queue latency ~ vCPU latency.
	eng, h, vm := testSetup(t, 1, 1, 1, 1)
	// 8ms bursts every 16ms.
	host.NewPatternContender(h, "noisy", h.Thread(0), 8*sim.Millisecond, 8*sim.Millisecond, 0)
	var lat []sim.Duration
	recordWaits(vm, "ls", &lat)
	step := 0
	vm.Spawn("ls", func(now sim.Time) Segment {
		step++
		if step > 40 {
			return Exit()
		}
		if step%2 == 1 {
			// Sleep so the next wake lands mid-burst: sleeps of 16ms keep
			// phase; use 11ms to drift across the pattern.
			return Sleep(11 * sim.Millisecond)
		}
		return Compute(1e5) // 100us of work
	})
	eng.RunFor(600 * sim.Millisecond)
	var max sim.Duration
	for _, l := range lat {
		if l > max {
			max = l
		}
	}
	if max < 4*sim.Millisecond {
		t.Fatalf("expected some wakeups to wait out the inactive period, max queue latency=%v", max)
	}
}

func TestStalledRunningTask(t *testing.T) {
	// Fig. 3 physics: a CPU-bound thread on a 50%-duty vCPU progresses at
	// half speed, though the VM has idle vCPUs.
	eng, h, vm := testSetup(t, 1, 4, 1, 4)
	for i := 0; i < 4; i++ {
		host.NewPatternContender(h, "noisy", h.Thread(i), 5*sim.Millisecond, 5*sim.Millisecond,
			sim.Duration(i)*2500*sim.Microsecond)
	}
	tk := vm.Spawn("worker", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	eng.RunFor(500 * sim.Millisecond)
	run := float64(tk.TotalRun())
	frac := run / float64(500*sim.Millisecond)
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("stalled task should progress ~50%%, got %.2f", frac)
	}
}

func TestSelfMigrationHarvestsIdleVCPUs(t *testing.T) {
	// Fig. 3 migration mode: hopping to the next vCPU every 4ms harvests
	// active periods; progress should be much better than 50%.
	eng, h, vm := testSetup(t, 1, 4, 1, 4)
	for i := 0; i < 4; i++ {
		host.NewPatternContender(h, "noisy", h.Thread(i), 5*sim.Millisecond, 5*sim.Millisecond,
			sim.Duration(i)*2500*sim.Microsecond)
	}
	// The hopper emulates Fig. 3's migration mode: it knows the contender
	// pattern (5ms on / 5ms off, phase i*2.5ms) and hops to the vCPU with
	// the longest remaining active window.
	bestActive := func(now sim.Time) int {
		period := sim.Time(10 * sim.Millisecond)
		best, bestLeft := 0, sim.Time(-1)
		for i := 0; i < 4; i++ {
			phase := sim.Time(i) * sim.Time(2500*sim.Microsecond)
			pos := (now - phase) % period
			if pos < 0 {
				pos += period
			}
			if pos >= sim.Time(5*sim.Millisecond) { // active window [5,10)
				if left := period - pos; left > bestLeft {
					best, bestLeft = i, left
				}
			}
		}
		return best
	}
	step := 0
	tk := vm.Spawn("hopper", func(now sim.Time) Segment {
		step++
		if step%2 == 1 {
			return Compute(2e6) // ~2ms at full speed
		}
		return MigrateTo(bestActive(now))
	}, StartOn(0))
	eng.RunFor(500 * sim.Millisecond)
	frac := float64(tk.TotalRun()) / float64(500*sim.Millisecond)
	if frac < 0.75 {
		t.Fatalf("self-migrating task should harvest idle vCPUs, progress frac=%.2f", frac)
	}
}

func TestNewIdleBalancePullsWork(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 4, 1, 4)
	// Two CPU hogs dropped on vCPU0; idle vCPUs should pull one over.
	a := vm.Spawn("a", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	b := vm.Spawn("b", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	eng.RunFor(100 * sim.Millisecond)
	if a.CPU() == b.CPU() {
		t.Fatal("load balancing should spread CPU hogs to idle vCPUs")
	}
	total := a.TotalRun() + b.TotalRun()
	if total < 180*sim.Millisecond {
		t.Fatalf("after spreading, both should run ~full: %v", total)
	}
}

func TestSelectCPUSpreadsWakeups(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 4, 1, 4)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		tk := vm.Spawn("w", func(sim.Time) Segment { return ComputeForever() })
		_ = tk
	}
	eng.RunFor(50 * sim.Millisecond)
	for _, v := range vm.VCPUs() {
		if v.Curr() != nil {
			seen[v.ID()] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("4 hogs should occupy 4 vCPUs, got %d", len(seen))
	}
}

func TestSMTAwareSelectionWithBelief(t *testing.T) {
	// 4 cores x 2 threads, 8 vCPUs pinned 1:1. With correct SMT belief,
	// 4 CPU hogs should land on 4 distinct cores.
	eng, h, vm := testSetup(t, 1, 4, 2, 8)
	belief := DefaultBelief(8)
	for i := 0; i < 8; i++ {
		belief.CoreOf[i] = i / 2
	}
	vm.SetTopology(belief)
	for i := 0; i < 4; i++ {
		vm.Spawn("hog", func(sim.Time) Segment { return ComputeForever() })
	}
	eng.RunFor(200 * sim.Millisecond)
	cores := map[int]int{}
	for _, v := range vm.VCPUs() {
		if v.Curr() != nil {
			th := v.Entity().Thread()
			cores[th.Core()]++
		}
	}
	if len(cores) != 4 {
		t.Fatalf("SMT-aware placement should use 4 distinct cores, got %v", cores)
	}
	_ = h
}

func TestCgroupMaskEvicts(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 4, 1, 4)
	g := vm.NewGroup("workload")
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, vm.Spawn("w", func(sim.Time) Segment { return ComputeForever() }, WithGroup(g)))
	}
	eng.RunFor(20 * sim.Millisecond)
	mask := []bool{true, true, false, false}
	vm.SetGroupMask(g, mask)
	eng.RunFor(50 * sim.Millisecond)
	for _, tk := range tasks {
		if tk.CPU().ID() >= 2 {
			t.Fatalf("task %s still on banned vCPU %d", tk.Name(), tk.CPU().ID())
		}
	}
	// Banned vCPUs stay empty afterwards.
	if vm.VCPU(2).nrRunning() != 0 || vm.VCPU(3).nrRunning() != 0 {
		t.Fatal("banned vCPUs still have group tasks")
	}
}

func TestMisfitMigrationWithPublishedCapacity(t *testing.T) {
	eng, h, vm := testSetup(t, 1, 4, 1, 4)
	// vCPU3's thread is twice as fast; publish honest capacities.
	h.Thread(3).SetSpeedFactor(2.0)
	for i := 0; i < 3; i++ {
		vm.VCPU(i).PublishCapacity(1024)
	}
	vm.VCPU(3).PublishCapacity(2048)
	tk := vm.Spawn("hog", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	eng.RunFor(300 * sim.Millisecond)
	if tk.CPU().ID() != 3 {
		t.Fatalf("misfit hog should migrate to the fast vCPU, on %d", tk.CPU().ID())
	}
}

func TestHeartbeatGoesStaleWhenInactive(t *testing.T) {
	eng, h, vm := testSetup(t, 1, 2, 1, 2)
	vm.Spawn("busy", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	eng.RunFor(20 * sim.Millisecond)
	// Long RT burst: vCPU0 inactive for 30ms.
	host.NewPatternContender(h, "noisy", h.Thread(0), 30*sim.Millisecond, 200*sim.Millisecond, 0)
	eng.RunFor(10 * sim.Millisecond)
	v0 := vm.VCPU(0)
	stale := eng.Now().Sub(v0.Heartbeat())
	if stale < 5*sim.Millisecond {
		t.Fatalf("heartbeat should be stale during inactivity, age=%v", stale)
	}
	eng.RunFor(25 * sim.Millisecond) // burst over; ticks resume
	stale = eng.Now().Sub(v0.Heartbeat())
	if stale > 2*sim.Millisecond {
		t.Fatalf("heartbeat should be fresh again, age=%v", stale)
	}
}

func TestStealJumpPreemptionCounting(t *testing.T) {
	eng, h, vm := testSetup(t, 1, 1, 1, 1)
	vm.Spawn("busy", func(sim.Time) Segment { return ComputeForever() })
	// 2ms bursts every 10ms: ~50 preemptions in 500ms.
	host.NewPatternContender(h, "noisy", h.Thread(0), 2*sim.Millisecond, 8*sim.Millisecond, 0)
	eng.RunFor(500 * sim.Millisecond)
	got := vm.VCPU(0).PreemptCount()
	if got < 35 || got > 60 {
		t.Fatalf("steal-jump count=%d want ~50", got)
	}
	if vm.VCPU(0).ResetPreemptCount() != got {
		t.Fatal("reset should return prior count")
	}
	if vm.VCPU(0).PreemptCount() != 0 {
		t.Fatal("reset failed")
	}
}

func TestPullRunningFailsOnInactiveSource(t *testing.T) {
	eng, h, vm := testSetup(t, 1, 2, 1, 2)
	tk := vm.Spawn("hog", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	eng.RunFor(10 * sim.Millisecond)
	// Make vCPU0 inactive.
	host.NewPatternContender(h, "noisy", h.Thread(0), 50*sim.Millisecond, 50*sim.Millisecond, 0)
	eng.RunFor(5 * sim.Millisecond)
	if ok := vm.PullRunning(vm.VCPU(0), vm.VCPU(1), tk); ok {
		t.Fatal("stopper must not run on an inactive vCPU")
	}
	if tk.CPU().ID() != 0 {
		t.Fatal("task must not have moved")
	}
}

func TestVanillaCapacityEstimateFlaw(t *testing.T) {
	// The stock estimate reports ~512 for a busy 50%-duty vCPU but 1024 for
	// an idle one — the Fig. 11 flaw.
	eng, h, vm := testSetup(t, 1, 2, 1, 2)
	host.NewPatternContender(h, "noisy0", h.Thread(0), 5*sim.Millisecond, 5*sim.Millisecond, 0)
	host.NewPatternContender(h, "noisy1", h.Thread(1), 5*sim.Millisecond, 5*sim.Millisecond, 0)
	vm.Spawn("busy", func(sim.Time) Segment { return ComputeForever() }, WithAffinity(0))
	eng.RunFor(500 * sim.Millisecond)
	busyCap := vm.VCPU(0).Capacity()
	idleCap := vm.VCPU(1).Capacity()
	if busyCap > 700 {
		t.Fatalf("busy 50%%-duty vCPU should report reduced capacity, got %d", busyCap)
	}
	if idleCap != 1024 {
		t.Fatalf("idle vCPU reports %d, the flaw requires 1024", idleCap)
	}
	// Published capacities override both.
	vm.VCPU(1).PublishCapacity(512)
	if vm.VCPU(1).Capacity() != 512 {
		t.Fatal("published capacity not honoured")
	}
}

func TestDeterministicGuest(t *testing.T) {
	run := func() (sim.Duration, uint64) {
		eng := sim.NewEngine(99)
		cfg := host.DefaultConfig()
		cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 4, 1
		h := host.New(eng, cfg)
		var threads []*host.Thread
		for i := 0; i < 4; i++ {
			threads = append(threads, h.Thread(i))
		}
		vm := NewVM(h, "vm", threads, DefaultParams())
		vm.Start()
		host.NewPatternContender(h, "noisy", h.Thread(1), 3*sim.Millisecond, 4*sim.Millisecond, 0)
		var total sim.Duration
		for i := 0; i < 6; i++ {
			tk := vm.Spawn("w", loopCompute(5e5, 50, nil))
			defer func() { total += tk.TotalRun() }()
		}
		eng.RunFor(300 * sim.Millisecond)
		return total, vm.Stats().ContextSwitches
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("guest nondeterministic: %v/%d vs %v/%d", r1, c1, r2, c2)
	}
}

func TestUtilTracksCPUIntensity(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 1, 2)
	hog := vm.Spawn("hog", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	step := 0
	light := vm.Spawn("light", func(now sim.Time) Segment {
		step++
		if step%2 == 1 {
			return Compute(5e4) // 50us
		}
		return Sleep(10 * sim.Millisecond)
	}, StartOn(1))
	eng.RunFor(300 * sim.Millisecond)
	if u := hog.Util(); u < 900 {
		t.Fatalf("hog util=%v", u)
	}
	if u := light.Util(); u > 200 {
		t.Fatalf("light util=%v", u)
	}
	_ = math.Pi
}

// TestPinnedTaskOverridesGroupBan mirrors Linux semantics: a task pinned to
// one vCPU keeps running there even when its cgroup's mask bans that vCPU —
// pinning is the effective cpumask. vcap's per-vCPU probers rely on this
// (rwc bans stacked vCPUs for the prober group; the probers must not be
// stranded, vcap just halts their sampling).
func TestPinnedTaskOverridesGroupBan(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 4, 1, 4)
	g := vm.NewGroup("g")
	var runs int
	vm.Spawn("pinned", func(now sim.Time) Segment {
		runs++
		return Compute(1e5)
	}, WithAffinity(2), WithGroup(g))
	vm.SetGroupMask(g, []bool{true, true, false, true}) // ban vCPU 2
	eng.RunFor(100 * sim.Millisecond)
	if runs == 0 {
		t.Fatal("pinned task starved after its vCPU was group-banned")
	}
}
