package host

import (
	"fmt"
	"math/rand"
	"testing"

	"vsched/internal/sim"
)

// checkHostInvariants asserts the structural properties of the host
// scheduler at quiescent points: every entity is in a legal state, a
// Running entity is the current of exactly its home thread, queues hold
// only Runnable entities without duplicates, a thread with queued entities
// is never left idle, every socket's busy-core count equals a recount, and
// every running thread's cached speed equals its effective speed. The speed
// model refreshes other threads only when a socket's turbo predicate flips;
// the last two checks are what prove that misses nothing.
func checkHostInvariants(t *testing.T, h *Host) {
	t.Helper()
	busy := make([]int, h.cfg.Sockets)
	for i := 0; i < h.NumThreads(); i++ {
		th := h.Thread(i)
		if sib := th.Sibling(); sib != nil && sib.Sibling() != th {
			t.Fatalf("thread %d sibling link is not mutual", i)
		}
		if th.slot == 0 && (th.current != nil || (th.sibling != nil && th.sibling.current != nil)) {
			busy[th.socket]++
		}
		if th.current != nil && th.curSpeed != th.effectiveSpeed() {
			t.Fatalf("thread %d runs at cached speed %v, effective %v", i, th.curSpeed, th.effectiveSpeed())
		}
		seen := map[*Entity]bool{}
		if cur := th.Current(); cur != nil {
			if cur.State() != Running {
				t.Fatalf("thread %d current in state %v", i, cur.State())
			}
			if cur.Thread() != th {
				t.Fatalf("thread %d current homed on %d", i, cur.Thread().ID())
			}
			seen[cur] = true
		}
		for _, e := range th.queue {
			if seen[e] {
				t.Fatalf("entity %s appears twice on thread %d", e.Name(), i)
			}
			seen[e] = true
			if e.State() != Runnable {
				t.Fatalf("queued entity %s in state %v", e.Name(), e.State())
			}
			if e.Thread() != th {
				t.Fatalf("queued entity %s homed elsewhere", e.Name())
			}
		}
		if th.Current() == nil && len(th.queue) > 0 {
			t.Fatalf("thread %d idle with %d runnable entities", i, len(th.queue))
		}
	}
	for s, n := range busy {
		if h.busyCoreCount[s] != n {
			t.Fatalf("socket %d busy-core count %d, recount %d", s, h.busyCoreCount[s], n)
		}
	}
}

// TestHostSchedulerStateFuzz drives the host scheduler with random
// operation sequences (wake, block, migrate, bandwidth and speed factor
// changes) and validates invariants continuously.
func TestHostSchedulerStateFuzz(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine(seed)
			cfg := DefaultConfig()
			cfg.Sockets = 1 + rng.Intn(2)
			cfg.CoresPerSocket = 1 + rng.Intn(3)
			cfg.ThreadsPerCore = 1 + rng.Intn(2)
			h := New(eng, cfg)
			n := h.NumThreads()

			var ents []*Entity
			for i := 0; i < 2+rng.Intn(8); i++ {
				e := h.NewEntity(fmt.Sprintf("e%d", i), h.Thread(rng.Intn(n)),
					256+rng.Int63n(2048), NopClient{})
				if rng.Intn(4) == 0 {
					e.SetRT(true)
				}
				ents = append(ents, e)
			}

			for step := 0; step < 400; step++ {
				e := ents[rng.Intn(len(ents))]
				switch rng.Intn(6) {
				case 0:
					e.Wake()
				case 1:
					e.Block()
				case 2:
					e.Migrate(h.Thread(rng.Intn(n)))
				case 3:
					e.SetBandwidth(sim.Duration(rng.Intn(80)) * sim.Millisecond)
				case 4:
					eng.RunFor(sim.Duration(rng.Intn(10)) * sim.Millisecond)
				case 5:
					h.Thread(rng.Intn(n)).SetSpeedFactor(0.5 + rng.Float64())
				}
				checkHostInvariants(t, h)
			}
			// Steady state: all woken entities still make progress.
			for _, e := range ents {
				e.SetBandwidth(0)
				e.Wake()
			}
			before := make([]sim.Duration, len(ents))
			for i, e := range ents {
				before[i] = e.RunTime()
			}
			eng.RunFor(2 * sim.Second)
			checkHostInvariants(t, h)
			progressed := 0
			for i, e := range ents {
				if e.RunTime() > before[i] {
					progressed++
				}
			}
			if progressed == 0 {
				t.Fatal("no entity progressed after the fuzz sequence")
			}
		})
	}
}

// TestTurboFlipRefreshesSocket drives a two-socket turbo host whose busy-core
// count keeps crossing 1 and 2 — starts and stops of lone cores, SMT
// siblings joining and leaving busy cores, cross-socket migrations — and
// checks after every step that no running thread's speed is stale and that
// every client heard of each speed change.
func TestTurboFlipRefreshesSocket(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 2, 3, 2
	h := New(eng, cfg)
	rng := rand.New(rand.NewSource(3))
	var ents []*Entity
	var clients []*recClient
	for i := 0; i < h.NumThreads(); i++ {
		c := &recClient{}
		ents = append(ents, h.NewEntity(fmt.Sprintf("e%d", i), h.Thread(i), DefaultWeight, c))
		clients = append(clients, c)
	}
	flips := 0
	for step := 0; step < 2000; step++ {
		before := h.busyCoreCount[0]
		e := ents[rng.Intn(len(ents))]
		switch rng.Intn(5) {
		case 0, 1:
			e.Wake()
		case 2, 3:
			e.Block()
		case 4:
			e.Migrate(h.Thread(rng.Intn(h.NumThreads())))
		}
		if (before <= 1) != (h.busyCoreCount[0] <= 1) {
			flips++
		}
		checkHostInvariants(t, h)
		for i, e := range ents {
			if th := e.Thread(); th.Current() == e && clients[i].speed != th.curSpeed {
				t.Fatalf("step %d: %s believes speed %v, runs at %v", step, e.Name(), clients[i].speed, th.curSpeed)
			}
		}
	}
	if flips < 100 {
		t.Fatalf("only %d turbo flips on socket 0: the fixture does not cross 1<->2", flips)
	}
}
