package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vsched/internal/cachemodel"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
)

// Property: vtop discovers arbitrary random topologies — any mapping of
// vCPUs onto sockets/cores/threads, including stacking — exactly.
func TestVtopDiscoversRandomTopologies(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial * 7)))
			eng := sim.NewEngine(int64(trial))
			cfg := host.DefaultConfig()
			cfg.Sockets = 1 + rng.Intn(3)
			cfg.CoresPerSocket = 1 + rng.Intn(3)
			cfg.ThreadsPerCore = 2
			cfg.TurboFactor = 1.0
			h := host.New(eng, cfg)

			// Random vCPU -> thread mapping with possible stacking.
			n := 4 + rng.Intn(5)
			threads := make([]*host.Thread, n)
			for i := range threads {
				threads[i] = h.Thread(rng.Intn(h.NumThreads()))
			}
			vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
			vm.Start()
			s := Attach(vm, Features{Vtop: true})
			eng.RunFor(10 * sim.Second)

			b := s.Vtop().Belief()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					truth := h.Relation(threads[i].ID(), threads[j].ID())
					var got cachemodel.Relation
					switch {
					case b.SameStack(i, j):
						got = cachemodel.Self
					case b.SameCore(i, j):
						got = cachemodel.SMT
					case b.SameSocket(i, j):
						got = cachemodel.Socket
					default:
						got = cachemodel.Cross
					}
					if got != truth {
						t.Fatalf("pair (%d,%d): probed %v, truth %v (threads %d,%d)",
							i, j, got, truth, threads[i].ID(), threads[j].ID())
					}
				}
			}
		})
	}
}

// Property: vcap's probed capacity tracks arbitrary fair shares within 15%.
func TestVcapTracksArbitraryShares(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(50 + trial)))
		eng := sim.NewEngine(int64(trial))
		cfg := host.DefaultConfig()
		cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 4, 1
		cfg.TurboFactor, cfg.SMTFactor = 1.0, 1.0
		cfg.BaseSpeed = 1.0
		h := host.New(eng, cfg)
		shares := make([]float64, 4)
		var threads []*host.Thread
		for i := 0; i < 4; i++ {
			threads = append(threads, h.Thread(i))
			shares[i] = 0.2 + 0.75*rng.Float64()
			if shares[i] < 0.98 {
				w := int64(float64(host.DefaultWeight) * (1 - shares[i]) / shares[i])
				if w < 1 {
					w = 1
				}
				host.NewStressor(h, "tenant", h.Thread(i), w)
			} else {
				shares[i] = 1.0
			}
		}
		vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
		vm.Start()
		Attach(vm, Features{Vcap: true, Vact: true})
		eng.RunFor(15 * sim.Second)
		for i := 0; i < 4; i++ {
			want := 1024 * shares[i]
			got := float64(vm.VCPU(i).Capacity())
			if got < want*0.85 || got > want*1.15 {
				t.Fatalf("trial %d vcpu %d: share %.2f want cap ~%.0f got %.0f",
					trial, i, shares[i], want, got)
			}
		}
	}
}

// Property: QueryState never reports Active for a vCPU whose heartbeat has
// been stale for many ticks, and never Inactive for a freshly ticking one.
func TestQueryStateConsistency(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 1
	h := host.New(eng, cfg)
	vm := guest.NewVM(h, "vm", []*host.Thread{h.Thread(0), h.Thread(1)}, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, Features{Vcap: true, Vact: true})
	vm.Spawn("hog", func(sim.Time) guest.Segment { return guest.ComputeForever() },
		guest.WithAffinity(0))
	host.NewPatternContender(h, "p", h.Thread(0), 7*sim.Millisecond, 7*sim.Millisecond, 0)
	eng.RunFor(2 * sim.Second)
	mismatches := 0
	checks := 0
	for i := 0; i < 2000; i++ {
		eng.RunFor(500 * sim.Microsecond)
		v := vm.VCPU(0)
		st, _ := s.QueryState(v)
		reallyRunning := v.Entity().State() == host.Running
		stale := eng.Now().Sub(v.Heartbeat())
		if st == StateActive && stale > 4*vm.Params().TickPeriod {
			t.Fatalf("reported Active with heartbeat stale %v", stale)
		}
		checks++
		// Tick-granularity disagreement with physics is expected briefly
		// around transitions, but must be rare.
		if (st == StateActive) != reallyRunning {
			mismatches++
		}
	}
	if frac := float64(mismatches) / float64(checks); frac > 0.35 {
		t.Fatalf("state query disagrees with physics %.0f%% of the time", 100*frac)
	}
}
