package core

import (
	"testing"

	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
)

// TestVSchedOnSingleVCPU runs the full system on the degenerate one-vCPU VM:
// every median/min aggregate collapses to the single sample, vtop has no
// pairs to probe, bvs has one candidate, ivh has nowhere to migrate. Nothing
// may panic and the workload must still progress.
func TestVSchedOnSingleVCPU(t *testing.T) {
	r := newRig(t, 1, 1, 1, 1, AllFeatures())
	host.NewPatternContender(r.h, "p", r.h.Thread(0), 3*sim.Millisecond, 7*sim.Millisecond, 0)

	var done int
	r.vm.Spawn("w", func(now sim.Time) guest.Segment {
		done++
		return guest.Compute(5e5)
	})
	r.eng.RunFor(10 * sim.Second)

	if done == 0 {
		t.Fatal("workload made no progress on a 1-vCPU VM")
	}
	if c := r.vm.VCPU(0).Capacity(); c < 500 || c > 1100 {
		t.Fatalf("capacity=%d want ~70%% of 1024", c)
	}
	if lat := r.vm.VCPU(0).Latency(); lat < 2*sim.Millisecond || lat > 4*sim.Millisecond {
		t.Fatalf("latency=%v want ~3ms", lat)
	}
	// The gate must accept the only vCPU there is.
	if thresh := r.s.lowLatencyThreshold(); r.vm.VCPU(0).Latency() > thresh {
		t.Fatalf("single vCPU rejected by its own latency gate: %v > %v",
			r.vm.VCPU(0).Latency(), thresh)
	}
}

// TestVSchedFullyStackedVM pins two vCPUs to the same host thread: vtop must
// confirm the stacking, rwc must hide exactly one of the pair (hiding both
// would deadlock the VM), and work must keep flowing on the survivor.
func TestVSchedFullyStackedVM(t *testing.T) {
	eng := sim.NewEngine(23)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 1
	cfg.TurboFactor, cfg.BaseSpeed = 1.0, 1.0
	h := host.New(eng, cfg)
	// Both vCPUs on thread 0; thread 1 stays empty.
	vm := guest.NewVM(h, "vm", []*host.Thread{h.Thread(0), h.Thread(0)}, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, AllFeatures())

	var done int
	vm.Spawn("w", func(now sim.Time) guest.Segment {
		done++
		return guest.Compute(5e5)
	}, guest.WithGroup(s.UserGroup()))
	eng.RunFor(12 * sim.Second)

	if !s.Vtop().Belief().SameStack(0, 1) {
		t.Fatal("vtop failed to confirm the stacked pair")
	}
	allowed := 0
	for i := 0; i < 2; i++ {
		if s.UserGroup().Allowed(i) {
			allowed++
		}
	}
	if allowed != 1 {
		t.Fatalf("rwc must hide exactly one of a fully stacked pair, %d allowed", allowed)
	}
	if done == 0 {
		t.Fatal("workload made no progress on the surviving vCPU")
	}
}

// TestBVSRespectsCGroupMask drives the selection hook directly: a task whose
// cgroup bans the objectively best vCPU must never be placed there.
func TestBVSRespectsCGroupMask(t *testing.T) {
	r := newRig(t, 1, 4, 1, 4, Features{Vcap: true, Vact: true, BVS: true})
	// vCPU 0 is the best (dedicated); 1-3 carry contention.
	for i := 1; i < 4; i++ {
		host.NewPatternContender(r.h, "p", r.h.Thread(i),
			3*sim.Millisecond, 3*sim.Millisecond, sim.Duration(i)*sim.Millisecond)
	}
	r.eng.RunFor(6 * sim.Second) // let probers learn

	g := r.vm.NewGroup("restricted")
	r.vm.SetGroupMask(g, []bool{false, true, true, true}) // ban the best vCPU
	task := r.vm.Spawn("lat", func(now sim.Time) guest.Segment {
		return guest.Sleep(10 * sim.Millisecond)
	}, guest.WithLatencySensitive(), guest.WithGroup(g))
	r.eng.RunFor(100 * sim.Millisecond)

	for i := 0; i < 50; i++ {
		if v := r.s.bvsSelect(task, r.vm.VCPU(0)); v != nil && v.ID() == 0 {
			t.Fatal("bvs placed a task on a cgroup-banned vCPU")
		}
		r.eng.RunFor(20 * sim.Millisecond)
	}
}
