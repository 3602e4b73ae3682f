package vtrace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// transition is one host entity state change as the host reports it.
type transition struct {
	e        *host.Entity
	at       sim.Time
	from, to host.EntityState
	thread   host.ThreadID
}

// recordTransitions registers a reference host observer that appends every
// transition to *trs.
func recordTransitions(h *host.Host, trs *[]transition) {
	h.AddObserver(func(e *host.Entity, now sim.Time, from, to host.EntityState) {
		*trs = append(*trs, transition{e: e, at: now, from: from, to: to, thread: e.Thread().ID()})
	})
}

// stateEvents is the KindEntityState record of each transition.
func stateEvents(trs []transition) []Event {
	var out []Event
	for _, x := range trs {
		out = append(out, Event{At: x.at, Kind: KindEntityState, Subject: x.e.Name(),
			A0: int64(x.from), A1: int64(x.to), A2: int64(x.thread)})
	}
	return out
}

// hostInstant is one instant on the export's host process: the entity,
// the time, the instant's name and, for a steal-end, its steal_ns argument.
type hostInstant struct {
	subject string
	at      sim.Time
	name    string
	stealNS int64
}

// wantHostInstants is the reference model of the host instants an export of
// trs renders, in order: per transition, preempt (Running → Runnable or
// Throttled), throttle (→ Throttled), unthrottle (Throttled → Runnable), and
// steal-end when the entity leaves a run of Runnable/Throttled states whose
// start is in trs.
func wantHostInstants(trs []transition) []hostInstant {
	since := map[*host.Entity]sim.Time{}
	var out []hostInstant
	for _, tr := range trs {
		add := func(name string, steal int64) {
			out = append(out, hostInstant{subject: tr.e.Name(), at: tr.at, name: name, stealNS: steal})
		}
		if tr.from == host.Running && inSteal(tr.to) {
			add("preempt", 0)
		}
		if tr.to == host.Throttled {
			add("throttle", 0)
		}
		if tr.from == host.Throttled && tr.to == host.Runnable {
			add("unthrottle", 0)
		}
		switch {
		case !inSteal(tr.from) && inSteal(tr.to):
			since[tr.e] = tr.at
		case inSteal(tr.from) && !inSteal(tr.to):
			if s, ok := since[tr.e]; ok {
				add("steal-end", int64(tr.at.Sub(s)))
				delete(since, tr.e)
			}
		}
	}
	return out
}

// exportHostInstants exports tr and returns the instants on its host
// process, in file order.
func exportHostInstants(t *testing.T, tr *Tracer) []hostInstant {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string
			Pid  int
			Tid  int
			Ts   json.Number
			Name string
			Args struct {
				Name    string
				StealNS int64 `json:"steal_ns"`
			}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	tracks := map[int]string{}
	var out []hostInstant
	for _, ev := range doc.TraceEvents {
		if ev.Pid != pidHost {
			continue
		}
		switch ev.Ph {
		case "M":
			tracks[ev.Tid] = ev.Args.Name
		case "i":
			// ts renders nanoseconds as "<µs>.<ns>".
			at, err := strconv.ParseInt(strings.Replace(string(ev.Ts), ".", "", 1), 10, 64)
			if err != nil {
				t.Fatalf("instant ts %q: %v", ev.Ts, err)
			}
			out = append(out, hostInstant{subject: tracks[ev.Tid], at: sim.Time(at), name: ev.Name, stealNS: ev.Args.StealNS})
		}
	}
	return out
}

// throttleRig builds one host thread shared by "v" (bandwidth-capped, so it
// is throttled) and a realtime 5ms/5ms pattern contender, and runs it to
// 8ms, where v is Runnable behind the contender. The caller attaches its
// taps, then runLate adds a stressor born after them and runs 300ms more.
func throttleRig(t *testing.T) (h *host.Host, v *host.Entity, runLate func()) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 1, 1
	h = host.New(eng, cfg)
	v = h.NewEntity("v", h.Thread(0), host.DefaultWeight, host.NopClient{})
	v.SetBandwidth(8 * sim.Millisecond)
	v.Wake()
	// Bursts at [7ms, 12ms), [17ms, 22ms), ...: the contender holds the
	// thread at the attach and at every 100ms quota refill.
	host.NewPatternContender(h, "p", h.Thread(0), 5*sim.Millisecond, 5*sim.Millisecond, 7*sim.Millisecond)
	eng.RunFor(8 * sim.Millisecond)
	if v.State() != host.Runnable {
		t.Fatalf("v is %v at attach, want Runnable behind the contender", v.State())
	}
	return h, v, func() {
		host.NewStressor(h, "late", h.Thread(0), host.DefaultWeight)
		eng.RunFor(300 * sim.Millisecond)
	}
}

// TestAttachHostOneEventPerTransition: the host tap records exactly one
// KindEntityState per transition a reference host observer sees, carrying
// its from and to states and the entity's thread.
func TestAttachHostOneEventPerTransition(t *testing.T) {
	h, _, runLate := throttleRig(t)
	var trs []transition
	recordTransitions(h, &trs)
	tr := New(1 << 14)
	AttachHost(tr, h)
	runLate()

	if got := tr.Events(); tr.Dropped() != 0 || !reflect.DeepEqual(got, stateEvents(trs)) {
		t.Fatalf("tap recorded %d events (%d dropped) for %d transitions", len(got), tr.Dropped(), len(trs))
	}
}

// TestAttachHostStealStretches pins the host instants the export derives
// from AttachHost's entity-state records, on the throttle rig:
//   - v is Runnable behind the contender when the taps attach, and leaving
//     that stretch renders no steal-end;
//   - Running → Throttled → Runnable (refilled while the contender holds the
//     thread) → Running renders exactly one steal-end, spanning the whole
//     stretch (the host never moves an entity from Runnable to Throttled: a
//     quota only throttles a running or waking entity);
//   - the stressor born after attach is tracked like the others;
//   - two tracers on the host export the same bytes.
func TestAttachHostStealStretches(t *testing.T) {
	h, v, runLate := throttleRig(t)
	var trs []transition
	recordTransitions(h, &trs)
	a, b := New(1<<14), New(1<<14)
	AttachHost(a, h)
	AttachHost(b, h)
	runLate()

	if a.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; size it up", a.Dropped())
	}
	var ab, bb bytes.Buffer
	if err := a.WriteChrome(&ab, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChrome(&bb, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("two tracers on one host exported different bytes")
	}
	got := exportHostInstants(t, a)
	if want := wantHostInstants(trs); !reflect.DeepEqual(got, want) {
		t.Fatalf("host instants differ from the transition model:\n got %v\nwant %v", got, want)
	}

	stealEnds := func(subject string, from, to sim.Time) []hostInstant {
		var out []hostInstant
		for _, in := range got {
			if in.name == "steal-end" && in.subject == subject && in.at >= from && in.at <= to {
				out = append(out, in)
			}
		}
		return out
	}

	// The stretch v was in at attach ends with no steal-end.
	var vt []transition
	for _, tr := range trs {
		if tr.e == v {
			vt = append(vt, tr)
		}
	}
	var firstExit sim.Time = -1
	for _, tr := range vt {
		if inSteal(tr.from) && !inSteal(tr.to) {
			firstExit = tr.at
			break
		}
	}
	if firstExit < 0 {
		t.Fatal("v never left the stretch it was in at attach")
	}
	if ends := stealEnds("v", firstExit, firstExit); len(ends) != 0 {
		t.Fatalf("a stretch begun before attach rendered %v", ends)
	}

	// Running → Throttled → Runnable → Running: one steal-end, at the end,
	// covering the throttled and the queued part.
	chains := 0
	for i := 0; i+2 < len(vt); i++ {
		t0, t1, t2 := vt[i], vt[i+1], vt[i+2]
		if t0.from != host.Running || t0.to != host.Throttled || t1.to != host.Runnable ||
			t2.to != host.Running || t2.at == t1.at {
			continue
		}
		chains++
		want := []hostInstant{{subject: "v", at: t2.at, name: "steal-end", stealNS: int64(t2.at.Sub(t0.at))}}
		if ends := stealEnds("v", t0.at, t2.at); !reflect.DeepEqual(ends, want) {
			t.Fatalf("throttle stretch %v..%v rendered %v, want %v", t0.at, t2.at, ends, want)
		}
	}
	if chains == 0 {
		t.Fatal("v was never throttled and then queued behind the contender; the rig lost its case")
	}

	if len(stealEnds("late", 0, sim.Time(1<<62))) == 0 {
		t.Fatal("no steal-end for the entity created after attach")
	}
}

// TestThrottleEventsTraced: a bandwidth-capped entity alone on its thread is
// throttled again and again; the export renders throttle and unthrottle
// instants for it, never more unthrottles than throttles, and exactly the
// instants of the transition model.
func TestThrottleEventsTraced(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 1, 1
	h := host.New(eng, cfg)
	var trs []transition
	recordTransitions(h, &trs)
	tr := New(0)
	AttachHost(tr, h)
	e := h.NewEntity("q", h.Thread(0), host.DefaultWeight, host.NopClient{})
	// Small quota per host bandwidth period => repeated throttling.
	e.SetBandwidth(20 * sim.Millisecond)
	e.Wake()
	eng.RunFor(500 * sim.Millisecond)

	got := exportHostInstants(t, tr)
	if want := wantHostInstants(trs); !reflect.DeepEqual(got, want) {
		t.Fatalf("host instants differ from the transition model:\n got %v\nwant %v", got, want)
	}
	count := map[string]int{}
	for _, in := range got {
		count[in.name]++
	}
	if count["throttle"] == 0 || count["unthrottle"] == 0 {
		t.Fatalf("throttle=%d unthrottle=%d, want both > 0", count["throttle"], count["unthrottle"])
	}
	if count["unthrottle"] > count["throttle"] {
		t.Fatalf("more unthrottles (%d) than throttles (%d)", count["unthrottle"], count["throttle"])
	}
}

// TestExportStealTotal: an entity time-shared 50/50 with a contender for
// 100ms exports preemptions and ~50ms of steal.
func TestExportStealTotal(t *testing.T) {
	tr := New(0)
	contendedEntity(t, func(h *host.Host, e *host.Entity) { AttachHost(tr, h) })
	var preempts int
	var steal int64
	for _, in := range exportHostInstants(t, tr) {
		if in.subject != "v" {
			continue
		}
		switch in.name {
		case "preempt":
			preempts++
		case "steal-end":
			steal += in.stealNS
		}
	}
	if preempts == 0 {
		t.Fatal("no preemptions exported despite a contender on the same thread")
	}
	if steal < int64(30*sim.Millisecond) || steal > int64(70*sim.Millisecond) {
		t.Fatalf("steal-ends sum to %d ns, want ~50ms", steal)
	}
}

// TestExportRingWrapCutsStretch sizes a ring so that wrap-around overwrites
// the start of one of v's steal stretches but keeps its end. The export
// renders no steal-end for that stretch and no instant without a surviving
// record: exactly the model over the surviving transitions.
func TestExportRingWrapCutsStretch(t *testing.T) {
	run := func(capacity int) ([]transition, *Tracer) {
		h, _, runLate := throttleRig(t)
		var trs []transition
		recordTransitions(h, &trs)
		tr := New(capacity)
		AttachHost(tr, h)
		runLate()
		return trs, tr
	}
	all, _ := run(1 << 14)
	// Cut at the exit of v's third stretch that began after attach.
	cut, begun := -1, 0
	for i, tr := range all {
		if tr.e.Name() != "v" {
			continue
		}
		if !inSteal(tr.from) && inSteal(tr.to) {
			begun++
		}
		if begun == 3 && inSteal(tr.from) && !inSteal(tr.to) {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("v has no third steal stretch; the rig lost its case")
	}

	trs, tr := run(len(all) - cut)
	if !reflect.DeepEqual(stateEvents(trs), stateEvents(all)) {
		t.Fatal("the rig is not deterministic")
	}
	if tr.Dropped() != uint64(cut) {
		t.Fatalf("ring dropped %d events, want %d", tr.Dropped(), cut)
	}
	got := exportHostInstants(t, tr)
	if want := wantHostInstants(trs[cut:]); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped export differs from the model over the surviving transitions:\n got %v\nwant %v", got, want)
	}
	for _, in := range got {
		if in.subject == "v" && in.at == all[cut].at && in.name == "steal-end" {
			t.Fatalf("a stretch whose start the ring overwrote rendered %v", in)
		}
	}
	// The unwrapped model does render that stretch's end.
	var full bool
	for _, in := range wantHostInstants(all) {
		full = full || (in.subject == "v" && in.at == all[cut].at && in.name == "steal-end")
	}
	if !full {
		t.Fatal("the cut stretch has no steal-end even without wrap; the rig lost its case")
	}
}
