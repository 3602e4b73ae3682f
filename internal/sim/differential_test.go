package sim_test

// Differential suite: the timing-wheel engine versus the original heap
// engine (kept verbatim in internal/sim/heapengine). Both engines are driven
// through identical randomized scripts of schedule/cancel/run/step/interrupt
// operations, and after every single operation the observable state — fire
// order, Now(), Fired(), Pending() — must match exactly. The FIFO tie-break
// for same-timestamp events is part of the contract: the byte-identity gates
// on experiment artifacts depend on it.

import (
	"fmt"
	"math/rand"
	"testing"

	"vsched/internal/sim"
	"vsched/internal/sim/heapengine"
)

// pair drives the wheel and the heap oracle in lockstep.
type pair struct {
	t      *testing.T
	wheel  *sim.Engine
	oracle *heapengine.Engine

	// fire logs, appended by event callbacks; tag identifies the event.
	wheelLog  []string
	oracleLog []string

	wheelEvs  []sim.Event
	oracleEvs []*heapengine.Event
}

func newPair(t *testing.T, seed int64) *pair {
	return &pair{t: t, wheel: sim.NewEngine(seed), oracle: heapengine.NewEngine(seed)}
}

// schedule registers the same event on both engines. Nested scheduling from
// inside callbacks is exercised via the nested flag.
func (p *pair) schedule(at sim.Time, tag string, nested bool) {
	p.wheelEvs = append(p.wheelEvs, p.wheel.At(at, func() {
		p.wheelLog = append(p.wheelLog, fmt.Sprintf("%s@%v", tag, p.wheel.Now()))
		if nested {
			p.wheel.After(sim.Millisecond, func() {
				p.wheelLog = append(p.wheelLog, fmt.Sprintf("%s.n@%v", tag, p.wheel.Now()))
			})
		}
	}))
	p.oracleEvs = append(p.oracleEvs, p.oracle.At(at, func() {
		p.oracleLog = append(p.oracleLog, fmt.Sprintf("%s@%v", tag, p.oracle.Now()))
		if nested {
			p.oracle.After(sim.Millisecond, func() {
				p.oracleLog = append(p.oracleLog, fmt.Sprintf("%s.n@%v", tag, p.oracle.Now()))
			})
		}
	}))
}

func (p *pair) cancel(i int) {
	if len(p.wheelEvs) == 0 {
		return
	}
	i %= len(p.wheelEvs)
	p.wheelEvs[i].Cancel()
	p.oracleEvs[i].Cancel()
}

// check asserts every observable matches after an operation.
func (p *pair) check(op string) {
	p.t.Helper()
	if p.wheel.Now() != p.oracle.Now() {
		p.t.Fatalf("%s: Now() diverged: wheel=%v oracle=%v", op, p.wheel.Now(), p.oracle.Now())
	}
	if p.wheel.Fired() != p.oracle.Fired() {
		p.t.Fatalf("%s: Fired() diverged: wheel=%d oracle=%d", op, p.wheel.Fired(), p.oracle.Fired())
	}
	if p.wheel.Pending() != p.oracle.Pending() {
		p.t.Fatalf("%s: Pending() diverged: wheel=%d oracle=%d", op, p.wheel.Pending(), p.oracle.Pending())
	}
	if len(p.wheelLog) != len(p.oracleLog) {
		p.t.Fatalf("%s: fire counts diverged: wheel=%d oracle=%d", op, len(p.wheelLog), len(p.oracleLog))
	}
	for i := range p.wheelLog {
		if p.wheelLog[i] != p.oracleLog[i] {
			p.t.Fatalf("%s: fire order diverged at %d: wheel=%q oracle=%q",
				op, i, p.wheelLog[i], p.oracleLog[i])
		}
	}
	for i := range p.wheelEvs {
		if p.wheelEvs[i].Active() != p.oracleEvs[i].Active() {
			p.t.Fatalf("%s: Active() diverged for event %d: wheel=%v oracle=%v",
				op, i, p.wheelEvs[i].Active(), p.oracleEvs[i].Active())
		}
	}
}

// runScript executes a randomized operation script on both engines, checking
// every observable after every operation. Delay magnitudes are drawn across
// all wheel regions (level 0 through overflow) and include zero and
// same-timestamp duplicates so the FIFO tie-break is continuously tested.
func runScript(t *testing.T, seed int64, ops int) {
	p := newPair(t, seed)
	rng := rand.New(rand.NewSource(seed))
	// Delay palette spanning every wheel region plus ties.
	delay := func() sim.Duration {
		switch rng.Intn(6) {
		case 0:
			return 0 // same-instant: exercises the ready list and FIFO ties
		case 1:
			return sim.Duration(rng.Int63n(int64(sim.Millisecond))) // level 0
		case 2:
			return sim.Duration(rng.Int63n(int64(200 * sim.Millisecond))) // level 1
		case 3:
			return sim.Duration(rng.Int63n(int64(60 * sim.Second))) // level 2
		case 4:
			return 60*sim.Second + sim.Duration(rng.Int63n(int64(600*sim.Second))) // overflow
		default:
			return sim.Duration(rng.Int63n(int64(5 * sim.Millisecond)))
		}
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // schedule (most common)
			at := p.wheel.Now().Add(delay())
			p.schedule(at, fmt.Sprintf("e%d", i), rng.Intn(8) == 0)
			p.check("schedule")
		case 4, 5: // cancel a random earlier event (may be stale/fired)
			p.cancel(rng.Intn(1 << 16))
			p.check("cancel")
		case 6, 7: // bounded run
			d := delay()
			p.wheel.RunFor(d)
			p.oracle.RunFor(d)
			p.check("runfor")
		case 8: // single step
			ws := p.wheel.Step()
			os := p.oracle.Step()
			if ws != os {
				t.Fatalf("Step() result diverged: wheel=%v oracle=%v", ws, os)
			}
			p.check("step")
		case 9: // drain a few
			n := uint64(rng.Intn(5))
			wd := p.wheel.Drain(n)
			od := p.oracle.Drain(n)
			if wd != od {
				t.Fatalf("Drain(%d) diverged: wheel=%d oracle=%d", n, wd, od)
			}
			p.check("drain")
		}
	}
	// Final full drain: everything left must fire in the same order.
	p.wheel.Run(sim.Time(1) << 62)
	p.oracle.Run(sim.Time(1) << 62)
	p.check("final drain")
}

func TestDifferentialRandomScripts(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runScript(t, seed, 400)
		})
	}
}

func TestDifferentialLongScript(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential script skipped in -short mode")
	}
	runScript(t, 424242, 5000)
}

// TestDifferentialInterrupt checks that Interrupt freezes both engines at
// the same point.
func TestDifferentialInterrupt(t *testing.T) {
	p := newPair(t, 7)
	for i := 0; i < 50; i++ {
		p.schedule(sim.Time(i)*sim.Time(sim.Millisecond), fmt.Sprintf("e%d", i), false)
	}
	// Interrupt both from inside event 20.
	p.wheel.At(sim.Time(20)*sim.Time(sim.Millisecond)+1, func() { p.wheel.Interrupt() })
	p.oracle.At(sim.Time(20)*sim.Time(sim.Millisecond)+1, func() { p.oracle.Interrupt() })
	p.wheel.Run(sim.Time(sim.Second))
	p.oracle.Run(sim.Time(sim.Second))
	p.check("interrupt")
	if !p.wheel.Interrupted() || !p.oracle.Interrupted() {
		t.Fatal("both engines must report interrupted")
	}
}

// TestDifferentialFIFOTieBreakExact schedules many events at identical
// timestamps, interleaved with cancellations, and requires the surviving
// events to fire in exact insertion order on both engines.
func TestDifferentialFIFOTieBreakExact(t *testing.T) {
	p := newPair(t, 11)
	at := sim.Time(5 * sim.Millisecond)
	for i := 0; i < 100; i++ {
		p.schedule(at, fmt.Sprintf("t%03d", i), false)
	}
	for i := 0; i < 100; i += 3 {
		p.cancel(i)
	}
	p.wheel.Run(at)
	p.oracle.Run(at)
	p.check("fifo ties")
	// Sanity: the log itself must be in insertion order.
	for i := 1; i < len(p.wheelLog); i++ {
		if p.wheelLog[i] <= p.wheelLog[i-1] {
			t.Fatalf("tie-break out of insertion order: %q then %q", p.wheelLog[i-1], p.wheelLog[i])
		}
	}
}

// FuzzDifferential lets the fuzzer construct operation scripts directly:
// every byte pair is one operation applied to both engines, with full
// observable comparison after each.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 2, 0, 3, 50})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 4, 0})
	f.Add([]byte{1, 200, 1, 200, 2, 1, 3, 255, 0, 5, 4, 2})
	f.Add([]byte{0, 255, 1, 255, 3, 255, 3, 255, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newPair(t, 3)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, data[i+1]
			switch op {
			case 0: // near schedule
				at := p.wheel.Now().Add(sim.Duration(arg) * sim.Millisecond)
				p.schedule(at, fmt.Sprintf("a%d", i), false)
			case 1: // far schedule (level 2 / overflow territory)
				at := p.wheel.Now().Add(sim.Duration(arg) * sim.Second)
				p.schedule(at, fmt.Sprintf("b%d", i), arg%16 == 0)
			case 2:
				p.cancel(int(arg))
			case 3:
				p.wheel.RunFor(sim.Duration(arg) * sim.Millisecond)
				p.oracle.RunFor(sim.Duration(arg) * sim.Millisecond)
			case 4:
				ws, os := p.wheel.Step(), p.oracle.Step()
				if ws != os {
					t.Fatalf("Step() diverged: wheel=%v oracle=%v", ws, os)
				}
			}
			p.check(fmt.Sprintf("op%d", i))
		}
		p.wheel.Run(sim.Time(1) << 62)
		p.oracle.Run(sim.Time(1) << 62)
		p.check("fuzz final drain")
	})
}
