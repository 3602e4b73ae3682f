package guest_test

import (
	"testing"

	"vsched/internal/cachemodel"
	"vsched/internal/core"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
)

// guestSteadyStateAllocBudget is the pinned allocation budget for one 10 ms
// window of a warmed-up, contended VM with vSched attached. The micro tier's
// design target is zero: recurring engine callbacks are bound once per
// owner, topology domains are derived once per belief, and scratch slices
// and waiter queues reuse their arrays. What remains is high-water growth —
// the engine's node arena or ready list or a runqueue reaching a size it
// never had, a few times a simulated second — which AllocsPerRun's
// truncating average rounds away. Building callbacks per event, the same
// fixture allocated ~1300 times per window. If this test fails, a per-event closure or slice
// crept back onto the hot path — fix it, don't raise the budget.
const guestSteadyStateAllocBudget = 0

// steadyStateVM builds a 4-vCPU VM on a 2-core SMT host with co-tenants —
// a CFS stressor sharing vCPU 1's thread (host slices) and square-wave RT
// contenders on vCPUs 2 and 3 (inactive periods, pending IRQs, steal jumps)
// — running compute/sleep loops, a three-stage semaphore pipeline and a
// mutex-guarded section, under vSched's probers and techniques.
func steadyStateVM(features core.Features) (*sim.Engine, *guest.VM) {
	eng := sim.NewEngine(7)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 2
	h := host.New(eng, cfg)
	threads := []*host.Thread{h.Thread(0), h.Thread(1), h.Thread(2), h.Thread(3)}
	vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
	host.NewStressor(h, "hog", h.Thread(1), host.DefaultWeight)
	host.NewPatternContender(h, "rt2", h.Thread(2), 3*sim.Millisecond, 5*sim.Millisecond, 0)
	host.NewPatternContender(h, "rt3", h.Thread(3), 2*sim.Millisecond, 9*sim.Millisecond, sim.Millisecond)
	vm.Start()
	vs := core.New(vm, features, core.DefaultParams(), cachemodel.Default())
	vs.Start()

	// Compute/sleep loops; the latency-sensitive ones take bvs's path.
	for i := 0; i < 4; i++ {
		work := float64(100_000 * (i + 1))
		nap := sim.Duration(i+1) * 150 * sim.Microsecond
		step := 0
		opts := []guest.TaskOpt{guest.WithGroup(vs.UserGroup())}
		if i%2 == 0 {
			opts = append(opts, guest.WithLatencySensitive())
		}
		vm.Spawn("loop", func(sim.Time) guest.Segment {
			step++
			if step%2 == 1 {
				return guest.Compute(work)
			}
			return guest.Sleep(nap)
		}, opts...)
	}

	// Pipeline: a producer paced by sleeps feeds two consumer stages.
	s1, s2 := guest.NewSemaphore(0), guest.NewSemaphore(0)
	stage := func(in, out *guest.Semaphore, work float64, pace sim.Duration) guest.Behavior {
		step := 0
		return func(sim.Time) guest.Segment {
			step++
			switch step % 4 {
			case 1:
				if in != nil {
					return guest.SemWait(in)
				}
				return guest.Sleep(pace)
			case 2:
				return guest.Compute(work)
			case 3:
				if out != nil {
					return guest.SemPost(out)
				}
				return guest.Compute(work / 4)
			}
			return guest.Compute(work / 4)
		}
	}
	vm.Spawn("produce", stage(nil, s1, 80_000, 400*sim.Microsecond), guest.WithGroup(vs.UserGroup()))
	for i := 0; i < 2; i++ {
		vm.Spawn("filter", stage(s1, s2, 120_000, 0), guest.WithGroup(vs.UserGroup()))
		vm.Spawn("sink", stage(s2, nil, 60_000, 0), guest.WithGroup(vs.UserGroup()))
	}

	// Three tasks contend for one mutex.
	mu := &guest.Mutex{}
	for i := 0; i < 3; i++ {
		step := 0
		vm.Spawn("locker", func(sim.Time) guest.Segment {
			step++
			switch step % 4 {
			case 1:
				return guest.Acquire(mu)
			case 2:
				return guest.Compute(50_000)
			case 3:
				return guest.Release(mu)
			}
			return guest.Sleep(700 * sim.Microsecond)
		}, guest.WithGroup(vs.UserGroup()))
	}
	return eng, vm
}

func TestGuestSteadyStateAllocBudget(t *testing.T) {
	// vtop's probing sessions spawn prober tasks and ivh's migration
	// protocol builds closures per attempt: both allocate by design, on
	// cold paths measured in seconds rather than ticks. Everything else
	// vSched runs — vcap/vact sampling windows, bvs placement, rwc masks —
	// rides the steady state.
	features := core.Features{Vcap: true, Vact: true, BVS: true, RWC: true}
	eng, _ := steadyStateVM(features)
	// Warm up past the first vcap sampling windows so every queue, scratch
	// buffer and engine pool has reached its working size.
	eng.RunFor(3 * sim.Second)
	fired := eng.Fired()
	avg := testing.AllocsPerRun(100, func() { eng.RunFor(10 * sim.Millisecond) })
	if n := eng.Fired() - fired; n < 10_000 {
		t.Fatalf("only %d events in the measured windows: the fixture is not contended", n)
	}
	if avg > guestSteadyStateAllocBudget {
		t.Fatalf("steady-state guest window allocates %.0f allocs per 10 ms, budget %d: "+
			"a per-event closure or slice is back on the hot path",
			avg, guestSteadyStateAllocBudget)
	}
}

// TestParallelVMsShareNothing runs the steady-state fixture with every
// vSched feature on parallel goroutines, as the experiment harness runs
// trials, and requires each to match a serial run. Under -race it also
// proves the per-VM and per-owner hot-path state (decay memo, bound
// callbacks, scratch buffers) is never shared between VMs.
func TestParallelVMsShareNothing(t *testing.T) {
	run := func() (uint64, guest.Stats) {
		eng, vm := steadyStateVM(core.AllFeatures())
		eng.RunFor(sim.Second)
		return eng.Fired(), vm.Stats()
	}
	wantFired, wantStats := run()
	const workers = 4
	type result struct {
		fired uint64
		stats guest.Stats
	}
	results := make(chan result, workers)
	for i := 0; i < workers; i++ {
		go func() {
			fired, stats := run()
			results <- result{fired, stats}
		}()
	}
	for i := 0; i < workers; i++ {
		r := <-results
		if r.fired != wantFired || r.stats != wantStats {
			t.Fatalf("parallel run diverged: %d events %+v, serial %d events %+v",
				r.fired, r.stats, wantFired, wantStats)
		}
	}
}
