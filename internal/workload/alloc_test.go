package workload

import (
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// serverSteadyStateAllocBudget is the pinned allocation budget for one 10 ms
// window of warmed-up request servers. The request path's design target is
// zero: in-flight IRQ records are pooled per server with their delivery
// callback bound once, the open-loop arrival callback is bound once, and the
// arrival FIFOs keep their backing arrays. With a closure per request and
// FIFOs resliced past their head, the same fixture allocated ~314 times per
// window, about two allocations per request. If this test fails, a
// per-request closure or slice crept back onto the request path — fix it,
// don't raise the budget.
const serverSteadyStateAllocBudget = 0

// TestServerSteadyStateAllocBudget runs an open-loop server, a closed-loop
// server with think time and heavy-tailed service, and a sticky closed-loop
// server on a 4-vCPU VM whose vCPUs share their threads with CFS tenants, so
// interrupts also queue on inactive vCPUs.
func TestServerSteadyStateAllocBudget(t *testing.T) {
	eng, vm := testVM(t, 4)
	h := vm.Host()
	for i := 0; i < 4; i += 2 {
		host.NewStressor(h, "tenant", h.Thread(i), host.DefaultWeight)
	}
	servers := []*Server{
		NewServer(env(vm, 0), ServerConfig{
			Name: "open", Workers: 3,
			ServiceMean:  150 * sim.Microsecond,
			ServiceJit:   0.5,
			Interarrival: 400 * sim.Microsecond,
			LatencyMark:  true,
		}),
		NewServer(env(vm, 0), ServerConfig{
			Name: "closed", Workers: 2,
			ServiceMean: 200 * sim.Microsecond,
			Connections: 4,
			Think:       300 * sim.Microsecond,
			HeavyTail:   true,
		}),
		NewServer(env(vm, 0), ServerConfig{
			Name: "sticky", Workers: 4,
			ServiceMean: 100 * sim.Microsecond,
			Connections: 8,
			Think:       sim.Millisecond,
			Sticky:      true,
		}),
	}
	for _, s := range servers {
		s.Start()
	}
	// Warm up until every pool, FIFO and histogram has reached its working
	// size.
	eng.RunFor(2 * sim.Second)
	ops := make([]uint64, len(servers))
	for i, s := range servers {
		ops[i] = s.Ops()
	}
	avg := testing.AllocsPerRun(100, func() { eng.RunFor(10 * sim.Millisecond) })
	for i, s := range servers {
		if n := s.Ops() - ops[i]; n < 500 {
			t.Fatalf("server %s completed only %d requests in the measured windows", s.Name(), n)
		}
	}
	if avg > serverSteadyStateAllocBudget {
		t.Fatalf("steady-state server window allocates %.0f allocs per 10 ms, budget %d: "+
			"a per-request closure or slice is back on the request path",
			avg, serverSteadyStateAllocBudget)
	}
}
