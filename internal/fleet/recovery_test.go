package fleet

import (
	"fmt"
	"strings"
	"testing"

	"vsched/internal/faults"
	"vsched/internal/metrics"
	"vsched/internal/sim"
)

// TestCensusCheckPanicsOnImbalance: a balanced census passes; one VM missing
// from, or counted twice in, the states panics with the shared message.
func TestCensusCheckPanicsOnImbalance(t *testing.T) {
	ok := census{entered: 10, departed: 4, lost: 2, rejected: 1, pending: 1, running: 2}
	ok.check("micro")
	for _, bad := range []census{
		{entered: 10, departed: 4, lost: 2, rejected: 1, pending: 1, running: 1},
		{entered: 10, departed: 4, lost: 3, rejected: 1, pending: 1, running: 2},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "fleet: macro VM conservation violated: entered=10 ") {
					t.Fatalf("census %+v: panic %q, want a conservation violation", bad, msg)
				}
			}()
			bad.check("macro")
		}()
	}
}

// TestLedgerOutcome: availability is exactly 1 with no outage, even when
// nothing was ever committed; restores and losses feed the outage side, the
// MTTR statistics and the registry under the tier's prefix.
func TestLedgerOutcome(t *testing.T) {
	idle := recoveryLedger{reg: metrics.NewRegistry(), prefix: "fleet."}
	if o := idle.outcome("micro", census{}); o.Availability != 1 || o.MTTRMean != 0 {
		t.Fatalf("idle run: availability %v mttr %v, want 1/0", o.Availability, o.MTTRMean)
	}
	clean := recoveryLedger{reg: metrics.NewRegistry(), prefix: "fleet."}
	clean.up(8, 3600)
	clean.fault(faults.Brownout)
	if o := clean.outcome("micro", census{}); o.Availability != 1 || o.Brownouts != 1 {
		t.Fatalf("no crash: availability %v brownouts %d, want 1/1", o.Availability, o.Brownouts)
	}

	reg := metrics.NewRegistry()
	l := recoveryLedger{reg: reg, prefix: "fleet.macro."}
	l.up(4, 90)
	l.fault(faults.Crash)
	l.count(&l.Killed, "killed")
	l.count(&l.Killed, "killed")
	l.restored(10, 2)
	l.lostAfter(5, 4)
	o := l.outcome("macro", census{entered: 3, departed: 2})
	if o.Killed != 2 || o.Restarts != 1 || o.Lost != 1 {
		t.Fatalf("killed/restarts/lost = %d/%d/%d, want 2/1/1", o.Killed, o.Restarts, o.Lost)
	}
	// up 360 vCPU-s, down 10*2 + 5*4 = 40 vCPU-s.
	if o.Availability != 360.0/400 || o.DownVCPUHours != 40.0/3600 {
		t.Fatalf("availability %v down %v h, want 0.9 / 40 vCPU-s", o.Availability, o.DownVCPUHours)
	}
	if o.MTTRMean != 10 || o.MTTRMax != 10 {
		t.Fatalf("mttr %v/%v, want 10/10", o.MTTRMean, o.MTTRMax)
	}
	for name, want := range map[string]uint64{
		"fleet.macro.crashes": 1, "fleet.macro.killed": 2, "fleet.macro.restarts": 1, "fleet.macro.lost": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestFaultWindowsEffCap: zero while down, factor x capacity while
// degraded, full capacity from each window's end instant on (strict >).
func TestFaultWindowsEffCap(t *testing.T) {
	at := func(s int) sim.Time { return sim.Time(0).Add(sim.Duration(s) * sim.Second) }
	var w faultWindows
	if got := w.effCap(16, at(5)); got != 16 {
		t.Fatalf("effCap with no window open = %d, want 16", got)
	}
	w.open(faults.Event{At: at(10), Kind: faults.Brownout, Duration: 20 * sim.Second, Factor: 0.5})
	w.open(faults.Event{At: at(15), Kind: faults.Crash, Duration: 5 * sim.Second})
	w.open(faults.Event{At: at(12), Kind: faults.Crash, Duration: 2 * sim.Second}) // never shortens the outage
	for _, c := range []struct {
		now  int
		want int
	}{
		{15, 0}, {19, 0}, {20, 8}, {29, 8}, {30, 16},
	} {
		if got := w.effCap(16, at(c.now)); got != c.want {
			t.Fatalf("effCap at %ds = %d, want %d", c.now, got, c.want)
		}
	}
	w.open(faults.Event{At: at(40), Kind: faults.Stall, Duration: 3 * sim.Second})
	if w.stallUntil != at(43) || w.effCap(16, at(41)) != 16 {
		t.Fatalf("stall window %v, effCap %d: a stall must not cut admission capacity",
			w.stallUntil, w.effCap(16, at(41)))
	}
}

// rogue breaks the Policy contract: it places every VM on one fixed host,
// whether or not that host exists or has room.
type rogue struct{ host int }

func (rogue) Name() string                { return "rogue" }
func (rogue) Score(HostInfo) float64      { return 0 }
func (r rogue) Place(*HostIndex, int) int { return r.host }

// wantRoguePanic runs run and requires the panic pick raises for a rogue
// pick of host.
func wantRoguePanic(t *testing.T, host int, run func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "fleet: policy rogue placed a ") ||
			!strings.Contains(msg, fmt.Sprintf("-vCPU VM on host %d, ", host)) {
			t.Fatalf("panic %q, want the policy contract violation naming host %d", msg, host)
		}
	}()
	run()
}

// TestMicroPolicyContract: a micro fleet panics, naming the policy, when its
// policy picks a host outside the fleet or one without room, instead of
// turning the broken pick into a rejection.
func TestMicroPolicyContract(t *testing.T) {
	// Past the end, below -1, and host 0 once it holds 4 of the 5 VMs.
	for _, r := range []rogue{{4}, {-2}, {0}} {
		t.Run(fmt.Sprint(r.host), func(t *testing.T) {
			cfg := testConfig(1, r, false)
			typ := testMix()[1].Type
			cfg.Arrivals = nil
			for id := 0; id < 5; id++ {
				cfg.Arrivals = append(cfg.Arrivals, Arrival{ID: id, Type: typ, Lifetime: -sim.Second})
			}
			wantRoguePanic(t, r.host, func() { New(cfg).Run() })
		})
	}
}

// TestMacroPolicyContract: the macro tier panics, naming the policy, when its
// policy picks a host outside the fleet (which used to be a bare index out of
// range) or one without room (which used to overcommit it silently).
func TestMacroPolicyContract(t *testing.T) {
	trace := macroTestTrace(42)
	for _, r := range []rogue{{len(trace.Hosts)}, {-2}, {0}} {
		t.Run(fmt.Sprint(r.host), func(t *testing.T) {
			wantRoguePanic(t, r.host, func() { RunMacro(MacroConfig{Trace: trace, Policy: r}) })
		})
	}
}
