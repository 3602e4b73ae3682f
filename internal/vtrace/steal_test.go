package vtrace

import (
	"reflect"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// transition is one host entity state change as the host reports it.
type transition struct {
	e        *host.Entity
	at       sim.Time
	from, to host.EntityState
}

func inSteal(s host.EntityState) bool { return s == host.Runnable || s == host.Throttled }

// wantSteals derives the KindSteal events a tap attached before trs should
// emit: a stretch is a run of transitions inside Runnable/Throttled that
// began with a transition the tap saw, and it emits once, on leaving.
func wantSteals(trs []transition) []Event {
	since := map[*host.Entity]sim.Time{}
	var out []Event
	for _, tr := range trs {
		switch {
		case !inSteal(tr.from) && inSteal(tr.to):
			since[tr.e] = tr.at
		case inSteal(tr.from) && !inSteal(tr.to):
			if s, ok := since[tr.e]; ok {
				out = append(out, Event{At: tr.at, Kind: KindSteal, Subject: tr.e.Name(), A0: int64(tr.at.Sub(s))})
				delete(since, tr.e)
			}
		}
	}
	return out
}

func steals(evs []Event) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Kind == KindSteal {
			out = append(out, ev)
		}
	}
	return out
}

// TestAttachHostStealStretches pins the steal-stretch semantics of
// AttachHost on one host thread shared by "v" (bandwidth-capped, so it is
// throttled), a realtime 5ms/5ms pattern contender and a stressor created
// after the taps attach:
//   - v is Runnable behind the contender when the taps attach, and leaving
//     that stretch emits no KindSteal;
//   - Running → Throttled → Runnable (refilled while the contender holds the
//     thread) → Running emits exactly one KindSteal, spanning the whole
//     stretch (the host never moves an entity from Runnable to Throttled: a
//     quota only throttles a running or waking entity);
//   - the stressor born after attach is tracked like the others;
//   - two tracers on the host each see the full stream.
func TestAttachHostStealStretches(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 1, 1
	h := host.New(eng, cfg)
	v := h.NewEntity("v", h.Thread(0), host.DefaultWeight, host.NopClient{})
	v.SetBandwidth(8 * sim.Millisecond)
	v.Wake()
	// Bursts at [7ms, 12ms), [17ms, 22ms), ...: the contender holds the
	// thread at the attach and at every 100ms quota refill.
	host.NewPatternContender(h, "p", h.Thread(0), 5*sim.Millisecond, 5*sim.Millisecond, 7*sim.Millisecond)
	eng.RunFor(8 * sim.Millisecond)
	if v.State() != host.Runnable {
		t.Fatalf("v is %v at attach, want Runnable behind the contender", v.State())
	}

	var trs []transition
	h.AddObserver(func(e *host.Entity, now sim.Time, from, to host.EntityState) {
		trs = append(trs, transition{e: e, at: now, from: from, to: to})
	})
	a, b := New(1<<14), New(1<<14)
	AttachHost(a, h)
	AttachHost(b, h)
	host.NewStressor(h, "late", h.Thread(0), host.DefaultWeight)
	eng.RunFor(300 * sim.Millisecond)

	evs := a.Events()
	if a.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; size it up", a.Dropped())
	}
	if got := b.Events(); !reflect.DeepEqual(got, evs) || b.Total() != a.Total() {
		t.Fatalf("second tracer saw %d events (total %d), first %d (total %d)",
			len(got), b.Total(), len(evs), a.Total())
	}
	got, want := steals(evs), wantSteals(trs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("steal events differ from the stretch model:\n got %v\nwant %v", got, want)
	}

	// The stretch v was in at attach ends with no KindSteal.
	var firstExit sim.Time = -1
	for _, tr := range trs {
		if tr.e == v && inSteal(tr.from) && !inSteal(tr.to) {
			firstExit = tr.at
			break
		}
	}
	if firstExit < 0 {
		t.Fatal("v never left the stretch it was in at attach")
	}
	for _, ev := range got {
		if ev.Subject == "v" && ev.At == firstExit {
			t.Fatalf("a stretch begun before attach emitted %v", ev)
		}
	}

	// Running → Throttled → Runnable → Running: one KindSteal, at the end,
	// covering the throttled and the queued part.
	chains := 0
	var vt []transition
	for _, tr := range trs {
		if tr.e == v {
			vt = append(vt, tr)
		}
	}
	for i := 0; i+2 < len(vt); i++ {
		t0, t1, t2 := vt[i], vt[i+1], vt[i+2]
		if t0.from != host.Running || t0.to != host.Throttled || t1.to != host.Runnable ||
			t2.to != host.Running || t2.at == t1.at {
			continue
		}
		chains++
		var n int
		for _, ev := range got {
			if ev.Subject == "v" && ev.At >= t0.at && ev.At <= t2.at {
				n++
				if ev.At != t2.at || ev.A0 != int64(t2.at.Sub(t0.at)) {
					t.Fatalf("throttle stretch %v..%v emitted %v, want one steal of %v at its end",
						t0.at, t2.at, ev, t2.at.Sub(t0.at))
				}
			}
		}
		if n != 1 {
			t.Fatalf("throttle stretch %v..%v emitted %d steal events, want 1", t0.at, t2.at, n)
		}
	}
	if chains == 0 {
		t.Fatal("v was never throttled and then queued behind the contender; the rig lost its case")
	}

	var late int
	for _, ev := range got {
		if ev.Subject == "late" {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no steal events for the entity created after attach")
	}
}
