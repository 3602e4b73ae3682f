package guest

import (
	"fmt"
	"math/rand"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// checkInvariants asserts structural properties that must hold at any
// quiescent point of the simulation:
//
//  1. task conservation: every live task is in exactly one place — the curr
//     of one vCPU, on exactly one runqueue, or blocked;
//  2. the curr of a vCPU is never simultaneously queued;
//  3. runqueues contain only TaskRunnable tasks, curr is TaskRunning;
//  4. affinity-pinned tasks sit on their pinned vCPU;
//  5. socket footprint accounting matches the installed tasks;
//  6. the idle and overloaded masks equal a recount from curr and rq.
func checkInvariants(t *testing.T, vm *VM, tasks []*Task) {
	t.Helper()
	checkMasks(t, vm)
	where := map[*Task]string{}
	note := func(tk *Task, place string) {
		if prev, dup := where[tk]; dup {
			t.Fatalf("task %s in two places: %s and %s", tk.Name(), prev, place)
		}
		where[tk] = place
	}
	llc := make([]float64, len(vm.llcLoad))
	for _, v := range vm.vcpus {
		if v.curr != nil {
			note(v.curr, fmt.Sprintf("curr of v%d", v.id))
			if v.curr.state != TaskRunning {
				t.Fatalf("curr of v%d has state %v", v.id, v.curr.state)
			}
			if v.curr.cpu != v {
				t.Fatalf("curr of v%d thinks it is on v%d", v.id, v.curr.cpu.id)
			}
			if v.curr.footprint > 0 {
				llc[v.llcSocket] += v.curr.footprint
			}
		}
		for _, tk := range v.rq {
			note(tk, fmt.Sprintf("rq of v%d", v.id))
			if tk.state != TaskRunnable {
				t.Fatalf("queued task %s has state %v", tk.Name(), tk.state)
			}
			if tk.cpu != v {
				t.Fatalf("queued task %s on v%d thinks it is on v%d", tk.Name(), v.id, tk.cpu.id)
			}
		}
	}
	for _, tk := range tasks {
		place, placed := where[tk]
		switch tk.state {
		case TaskRunning, TaskRunnable:
			if !placed {
				t.Fatalf("task %s is %v but not installed anywhere", tk.Name(), tk.state)
			}
		case TaskSleeping, TaskExited:
			if placed {
				t.Fatalf("task %s is %v but present at %s", tk.Name(), tk.state, place)
			}
		}
		if tk.affinity >= 0 && (tk.state == TaskRunning || tk.state == TaskRunnable) {
			if tk.cpu.id != tk.affinity {
				t.Fatalf("pinned task %s on v%d, pinned to %d", tk.Name(), tk.cpu.id, tk.affinity)
			}
		}
	}
	for s := range llc {
		diff := llc[s] - vm.llcLoad[s]
		if diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("socket %d footprint drift: tracked %.3f actual %.3f", s, vm.llcLoad[s], llc[s])
		}
	}
}

// checkMasks asserts that every vCPU's bits in the idle and overloaded masks
// equal a recount from its curr and rq, and that no bit past the last vCPU
// is set.
func checkMasks(t *testing.T, vm *VM) {
	t.Helper()
	for i, v := range vm.vcpus {
		idle := v.curr == nil && len(v.rq) == 0
		over := len(v.rq) >= 1 && v.nrRunning() >= 2
		if vm.idle.has(i) != idle || vm.overloaded.has(i) != over {
			t.Fatalf("v%d masks idle=%v overloaded=%v, recount idle=%v overloaded=%v (curr %v, rq %d)",
				i, vm.idle.has(i), vm.overloaded.has(i), idle, over, v.curr != nil, len(v.rq))
		}
	}
	for i := len(vm.vcpus); i < 64*len(vm.idle); i++ {
		if vm.idle.has(i) || vm.overloaded.has(i) {
			t.Fatalf("mask bit %d set past the last vCPU", i)
		}
	}
}

// TestSchedulerInvariantsUnderStress runs a randomized scenario — random
// topology, contenders, task mixes, migrations and cgroup churn — and
// verifies the invariants at many quiescent points.
func TestSchedulerInvariantsUnderStress(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine(seed)
			cfg := host.DefaultConfig()
			cfg.Sockets = 1 + rng.Intn(2)
			cfg.CoresPerSocket = 2 + rng.Intn(4)
			cfg.ThreadsPerCore = 1 + rng.Intn(2)
			h := host.New(eng, cfg)
			n := h.NumThreads()
			var threads []*host.Thread
			for i := 0; i < n; i++ {
				threads = append(threads, h.Thread(i))
			}
			vm := NewVM(h, "vm", threads, DefaultParams())
			vm.Start()

			// Random co-tenants.
			for i := 0; i < n; i++ {
				switch rng.Intn(3) {
				case 0:
					host.NewStressor(h, "s", h.Thread(i), 512+rng.Int63n(2048))
				case 1:
					host.NewPatternContender(h, "p", h.Thread(i),
						sim.Duration(1+rng.Intn(8))*sim.Millisecond,
						sim.Duration(1+rng.Intn(8))*sim.Millisecond,
						sim.Duration(rng.Intn(5))*sim.Millisecond)
				}
			}

			g := vm.NewGroup("stress")
			var tasks []*Task
			mkBehavior := func(kind int) Behavior {
				m := &Mutex{}
				sem := NewSemaphore(1)
				step := 0
				return func(now sim.Time) Segment {
					step++
					switch kind {
					case 0:
						return Compute(float64(1+rng.Intn(3)) * 5e5)
					case 1:
						if step%2 == 0 {
							return Sleep(sim.Duration(1+rng.Intn(4)) * sim.Millisecond)
						}
						return Compute(2e5)
					case 2:
						switch step % 3 {
						case 0:
							return Acquire(m)
						case 1:
							return Compute(1e5)
						default:
							return Release(m)
						}
					default:
						switch step % 3 {
						case 0:
							return SemWait(sem)
						case 1:
							return Compute(1e5)
						default:
							return SemPost(sem)
						}
					}
				}
			}
			for i := 0; i < 3*n; i++ {
				opts := []TaskOpt{WithGroup(g)}
				if rng.Intn(4) == 0 {
					opts = append(opts, WithIdlePolicy())
				}
				if rng.Intn(5) == 0 {
					opts = append(opts, WithFootprint(1+rng.Float64()*3))
				}
				if rng.Intn(6) == 0 {
					opts = append(opts, WithAffinity(rng.Intn(n)))
				}
				tasks = append(tasks, vm.Spawn(fmt.Sprintf("t%d", i), mkBehavior(rng.Intn(4)), opts...))
			}

			for round := 0; round < 40; round++ {
				eng.RunFor(25 * sim.Millisecond)
				checkInvariants(t, vm, tasks)
				// Cgroup churn: randomly shrink/restore the group's mask.
				if round%7 == 3 {
					mask := make([]bool, n)
					any := false
					for i := range mask {
						mask[i] = rng.Intn(3) > 0
						any = any || mask[i]
					}
					if !any {
						mask[0] = true
					}
					vm.SetGroupMask(g, mask)
				}
				if round%7 == 6 {
					vm.SetGroupMask(g, vm.NewGroup("full").AllowedMask())
				}
				// Occasional host-side vCPU repinning (topology change).
				if round%11 == 5 {
					vm.VCPU(rng.Intn(len(vm.vcpus))).Entity().Migrate(h.Thread(rng.Intn(n)))
				}
			}
			// Mask respected at the end for unpinned tasks after full
			// enforcement rounds.
			eng.RunFor(200 * sim.Millisecond)
			checkInvariants(t, vm, tasks)
		})
	}
}

// TestMinVruntimeMonotone asserts the runqueue clock never goes backwards.
func TestMinVruntimeMonotone(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 1, 2)
	for i := 0; i < 4; i++ {
		i := i
		step := 0
		vm.Spawn(fmt.Sprintf("w%d", i), func(now sim.Time) Segment {
			step++
			if step%2 == 0 {
				return Sleep(sim.Duration(1+i) * sim.Millisecond)
			}
			return Compute(5e5)
		})
	}
	prev := make([]int64, 2)
	for round := 0; round < 200; round++ {
		eng.RunFor(1 * sim.Millisecond)
		for _, v := range vm.VCPUs() {
			if v.minVruntime < prev[v.ID()] {
				t.Fatalf("minVruntime of v%d went backwards: %d -> %d",
					v.ID(), prev[v.ID()], v.minVruntime)
			}
			prev[v.ID()] = v.minVruntime
		}
	}
}

// TestGroupMaskEventuallyEnforced verifies that after a mask change every
// unpinned group task ends up on an allowed vCPU, even when some vCPUs were
// inactive at change time (the stopper retries via the balancer).
func TestGroupMaskEventuallyEnforced(t *testing.T) {
	eng, h, vm := testSetup(t, 1, 8, 1, 8)
	for i := 0; i < 8; i++ {
		host.NewPatternContender(h, "p", h.Thread(i), 4*sim.Millisecond, 4*sim.Millisecond,
			sim.Duration(i)*sim.Millisecond)
	}
	g := vm.NewGroup("g")
	var tasks []*Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, vm.Spawn(fmt.Sprintf("w%d", i),
			func(sim.Time) Segment { return ComputeForever() }, WithGroup(g)))
	}
	eng.RunFor(50 * sim.Millisecond)
	mask := []bool{true, true, true, false, false, false, false, false}
	vm.SetGroupMask(g, mask)
	eng.RunFor(500 * sim.Millisecond)
	for _, tk := range tasks {
		if tk.CPU().ID() >= 3 {
			t.Fatalf("task %s still on banned vCPU %d", tk.Name(), tk.CPU().ID())
		}
	}
}

// TestTaskStatesAreTerminalOnExit ensures exited tasks never reappear.
func TestTaskStatesAreTerminalOnExit(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 1, 2)
	done := 0
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tk := vm.Spawn("t", loopCompute(1e5, 3, nil))
		tk.OnExit = func(sim.Time) { done++ }
		tasks = append(tasks, tk)
	}
	eng.RunFor(100 * sim.Millisecond)
	if done != 4 {
		t.Fatalf("done=%d", done)
	}
	for _, tk := range tasks {
		if tk.State() != TaskExited {
			t.Fatalf("task %s state %v after exit", tk.Name(), tk.State())
		}
	}
	// Waking an exited task must be a no-op.
	vm.wakeTask(tasks[0], nil)
	eng.RunFor(10 * sim.Millisecond)
	if tasks[0].State() != TaskExited {
		t.Fatal("exited task resurrected")
	}
}

// TestPELTUtilProperty: for arbitrary duty cycles on an uncontended vCPU,
// the PELT estimate must stay within [0, 1024] at every sample and its
// steady-state value must track the true duty ratio within PELT's
// half-life-bounded error.
func TestPELTUtilProperty(t *testing.T) {
	check := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		// Duty between 10% and 90%, period between 2ms and 40ms.
		period := sim.Duration(2+rng.Intn(38)) * sim.Millisecond
		duty := 0.1 + 0.8*rng.Float64()
		work := sim.Duration(float64(period) * duty)
		slp := period - work

		eng, _, vm := testSetup(t, 1, 1, 1, 1)
		_ = eng
		state := 0
		task := vm.Spawn("d", func(now sim.Time) Segment {
			state = 1 - state
			if state == 1 {
				return Compute(float64(work)) // speed 1.0: cycles == ns
			}
			return Sleep(slp)
		})
		want := 1024 * duty
		for i := 0; i < 200; i++ {
			vm.Host().Engine().RunFor(period / 4)
			u := task.Util()
			if u < 0 || u > 1024 {
				t.Fatalf("seed %d: PELT out of range: %v", seed, u)
			}
		}
		// Steady state: average a few samples against the duty ratio. PELT's
		// 32ms half-life ripples within a period, so tolerate a wide band.
		var sum float64
		const samples = 32
		for i := 0; i < samples; i++ {
			vm.Host().Engine().RunFor(period / 3)
			sum += task.Util()
		}
		got := sum / samples
		if got < want*0.55 || got > want*1.45+64 {
			t.Fatalf("seed %d: duty %.2f period %v: PELT avg %.0f want ~%.0f",
				seed, duty, period, got, want)
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		check(seed)
	}
}
