package guest

import (
	"fmt"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

func eevdfSetup(t *testing.T, nvcpu int) (*sim.Engine, *VM) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, nvcpu, 1
	cfg.TurboFactor, cfg.BaseSpeed = 1.0, 1.0
	h := host.New(eng, cfg)
	var threads []*host.Thread
	for i := 0; i < nvcpu; i++ {
		threads = append(threads, h.Thread(i))
	}
	p := DefaultParams()
	p.Policy = PolicyEEVDF
	vm := NewVM(h, "vm", threads, p)
	vm.Start()
	return eng, vm
}

func TestEEVDFFairSharing(t *testing.T) {
	eng, vm := eevdfSetup(t, 1)
	a := vm.Spawn("a", func(sim.Time) Segment { return ComputeForever() })
	b := vm.Spawn("b", func(sim.Time) Segment { return ComputeForever() })
	eng.RunFor(500 * sim.Millisecond)
	ra, rb := float64(a.TotalRun()), float64(b.TotalRun())
	if ra+rb < float64(490*sim.Millisecond) {
		t.Fatalf("vCPU underused: %v", ra+rb)
	}
	if r := ra / rb; r < 0.9 || r > 1.1 {
		t.Fatalf("EEVDF must stay fair: %v vs %v", ra, rb)
	}
}

func TestEEVDFWeightedSharing(t *testing.T) {
	eng, vm := eevdfSetup(t, 1)
	a := vm.Spawn("a", func(sim.Time) Segment { return ComputeForever() }, WithWeight(2048))
	b := vm.Spawn("b", func(sim.Time) Segment { return ComputeForever() })
	eng.RunFor(2 * sim.Second)
	r := float64(a.TotalRun()) / float64(b.TotalRun())
	if r < 1.8 || r > 2.2 {
		t.Fatalf("weighted EEVDF ratio=%v want ~2", r)
	}
}

func TestEEVDFShortSliceWinsDispatchNotBandwidth(t *testing.T) {
	// A latency-nice task (short request) competing with two hogs on one
	// vCPU: its wakeups dispatch quickly, yet its long-run share stays fair.
	run := func(slice int64) (p95 sim.Duration, share float64) {
		eng, vm := eevdfSetup(t, 1)
		for i := 0; i < 2; i++ {
			vm.Spawn(fmt.Sprintf("hog%d", i), func(sim.Time) Segment { return ComputeForever() })
		}
		var waits []sim.Duration
		recordWaits(vm, "lat", &waits)
		step := 0
		lat := vm.Spawn("lat", func(now sim.Time) Segment {
			step++
			if step%2 == 1 {
				return Sleep(5 * sim.Millisecond)
			}
			return Compute(2e5) // 200us bursts
		})
		if slice > 0 {
			lat.RequestSlice(slice)
		}
		eng.RunFor(2 * sim.Second)
		var max sim.Duration
		for _, w := range waits {
			if w > max {
				max = w
			}
		}
		// p95-ish: sort-free approximation via max of lower 95%... keep max.
		return max, float64(lat.TotalRun()) / float64(2*sim.Second)
	}
	slowMax, _ := run(0)
	fastMax, share := run(int64(200 * sim.Microsecond))
	if fastMax > slowMax {
		t.Fatalf("short request should not worsen dispatch: %v vs %v", fastMax, slowMax)
	}
	if fastMax > 2*sim.Millisecond {
		t.Fatalf("short-slice task should dispatch quickly, worst wait %v", fastMax)
	}
	// It must not have gained extra bandwidth: it is mostly sleeping anyway,
	// but cap its share well below a fair third.
	if share > 0.2 {
		t.Fatalf("latency preference must not buy bandwidth: share=%.2f", share)
	}
}

func TestEEVDFSchedIdleStillYields(t *testing.T) {
	eng, vm := eevdfSetup(t, 1)
	be := vm.Spawn("be", func(sim.Time) Segment { return ComputeForever() }, WithIdlePolicy())
	n := vm.Spawn("n", func(sim.Time) Segment { return ComputeForever() })
	eng.RunFor(200 * sim.Millisecond)
	if float64(be.TotalRun()) > 0.05*float64(200*sim.Millisecond) {
		t.Fatalf("sched_idle got %v under EEVDF", be.TotalRun())
	}
	if n.State() != TaskRunning {
		t.Fatal("normal task should dominate")
	}
}

func TestEEVDFPolicyString(t *testing.T) {
	if PolicyCFS.String() != "cfs" || PolicyEEVDF.String() != "eevdf" {
		t.Fatal("policy strings")
	}
}

func TestEEVDFWithVSchedHooksCompatible(t *testing.T) {
	// The paper's §4 portability claim: the hook points are policy-agnostic.
	// Install a SelectCPU hook under EEVDF and verify it steers placement.
	eng, vm := eevdfSetup(t, 4)
	picked := 0
	vm.InstallHooks(Hooks{
		SelectCPU: func(t *Task, prev *VCPU) *VCPU {
			if t.LatencySensitive {
				picked++
				return vm.VCPU(3)
			}
			return nil
		},
	})
	step := 0
	tk := vm.Spawn("lat", func(sim.Time) Segment {
		step++
		if step%2 == 1 {
			return Sleep(2 * sim.Millisecond)
		}
		return Compute(1e5)
	}, WithLatencySensitive())
	eng.RunFor(100 * sim.Millisecond)
	if picked == 0 {
		t.Fatal("hook never consulted under EEVDF")
	}
	if tk.CPU().ID() != 3 {
		t.Fatalf("hook placement ignored, task on %d", tk.CPU().ID())
	}
	if tk.TotalRun() == 0 {
		t.Fatal("task made no progress")
	}
}

func TestRequestSliceValidation(t *testing.T) {
	_, vm := eevdfSetup(t, 1)
	tk := vm.Spawn("x", func(sim.Time) Segment { return ComputeForever() })
	defer func() {
		if recover() == nil {
			t.Fatal("negative slice must panic")
		}
	}()
	tk.RequestSlice(-1)
}
