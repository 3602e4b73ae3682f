package vtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// contendedEntity builds a 1-thread host with one observed entity sharing the
// thread with a 5ms/5ms pattern contender, and runs it for 100ms.
func contendedEntity(t *testing.T, attach func(h *host.Host, e *host.Entity)) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 1
	h := host.New(eng, cfg)
	e := h.NewEntity("v", h.Thread(0), host.DefaultWeight, host.NopClient{})
	attach(h, e)
	e.Wake()
	host.NewPatternContender(h, "p", h.Thread(0), 5*sim.Millisecond, 5*sim.Millisecond, 0)
	eng.RunFor(100 * sim.Millisecond)
}

// Satellite regression: before observers became a list, attaching a second
// consumer silently replaced the first. Every observer must see every
// transition.
// TestTee: a tee hands each event to fn first and then records it on the
// ring, exactly as emitting on the ring would; with a nil ring only fn sees it.
func TestTee(t *testing.T) {
	ev := Event{At: 5, Kind: KindTaskOn, Subject: "t", A0: 1, A1: 2, A2: 3}
	var seen []Event
	Tee(nil, func(e Event) { seen = append(seen, e) }).Emit(ev.At, ev.Kind, ev.Subject, ev.A0, ev.A1, ev.A2)
	if len(seen) != 1 || seen[0] != ev {
		t.Fatalf("Tee(nil, fn) delivered %v, want [%v]", seen, ev)
	}

	ring := New(8)
	seen = nil
	tee := Tee(ring, func(e Event) {
		if len(ring.Events()) != 0 {
			t.Error("ring recorded the event before fn ran")
		}
		seen = append(seen, e)
	})
	tee.Emit(ev.At, ev.Kind, ev.Subject, ev.A0, ev.A1, ev.A2)
	if got := ring.Events(); len(seen) != 1 || seen[0] != ev || len(got) != 1 || got[0] != ev {
		t.Fatalf("Tee(ring, fn): fn saw %v, ring holds %v, want [%v] in both", seen, got, ev)
	}
}

func TestObserversStack(t *testing.T) {
	var first, second, third int
	contendedEntity(t, func(h *host.Host, e *host.Entity) {
		e.AddObserver(func(now sim.Time, from, to host.EntityState) { first++ })
		e.AddObserver(func(now sim.Time, from, to host.EntityState) { second++ })
		e.AddObserver(func(now sim.Time, from, to host.EntityState) { third++ })
	})
	if first == 0 {
		t.Fatal("first observer saw nothing")
	}
	if second != first || third != first {
		t.Fatalf("observers saw %d, %d, %d transitions — observers clobbered", first, second, third)
	}
}

// The per-entity observers and the host-wide observer are independent taps.
func TestHostObserverAndEntityObserversCoexist(t *testing.T) {
	var seen int
	tr := New(0)
	contendedEntity(t, func(h *host.Host, e *host.Entity) {
		e.AddObserver(func(now sim.Time, from, to host.EntityState) { seen++ })
		AttachHost(tr, h)
	})
	if seen == 0 {
		t.Fatal("entity observer saw nothing")
	}
	var stateEvents int
	for _, ev := range tr.Events() {
		if ev.Kind == KindEntityState && ev.Subject == "v" {
			stateEvents++
		}
	}
	if stateEvents != seen {
		t.Fatalf("host tap saw %d transitions of v, entity observer saw %d", stateEvents, seen)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), KindBalance, "vm", int64(i), 0, 0)
	}
	if tr.Total() != 10 {
		t.Fatalf("total=%d want 10", tr.Total())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped=%d want 6", tr.Dropped())
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("len=%d want 4", len(events))
	}
	for i, ev := range events {
		if ev.A0 != int64(6+i) {
			t.Fatalf("event %d has A0=%d, want %d (chronological, oldest survivor first)", i, ev.A0, 6+i)
		}
	}
}

// TestWrapAroundExportMetadata is the drop-accounting regression test: after
// ring wrap-around, the summary and the Chrome trailer must both report how
// many events were emitted versus lost, so a consumer can tell a complete
// trace from a truncated one.
func TestWrapAroundExportMetadata(t *testing.T) {
	tr := New(8)
	for i := 0; i < 100; i++ {
		tr.Emit(sim.Time(i*1000), KindBalance, "vm", int64(i), 0, 0)
	}
	if tr.Total() != 100 || tr.Dropped() != 92 {
		t.Fatalf("total=%d dropped=%d want 100/92", tr.Total(), tr.Dropped())
	}
	s := tr.Summary()
	if !strings.Contains(s, "100 emitted") || !strings.Contains(s, "92 dropped") {
		t.Fatalf("summary missing drop accounting:\n%s", s)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData struct {
			Emitted int `json:"emittedEvents"`
			Dropped int `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.OtherData.Emitted != 100 || doc.OtherData.Dropped != 92 {
		t.Fatalf("otherData emitted=%d dropped=%d want 100/92",
			doc.OtherData.Emitted, doc.OtherData.Dropped)
	}
	// An unbounded ring drops nothing and says so.
	tr2 := New(0)
	tr2.Emit(0, KindBalance, "vm", 0, 0, 0)
	buf.Reset()
	if err := tr2.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"droppedEvents":0`)) {
		t.Fatal("unbounded ring must export droppedEvents:0")
	}
}

// TestFaultStormDropAccounting floods a small ring with a burst of fault and
// evacuation events — the pattern a host crash under recovery produces: one
// KindHostFault followed by a KindVMCrash/KindVMRestart/KindVMLost volley —
// and checks the drop accounting stays exact: Total counts every emit,
// Dropped is exactly total minus capacity, the survivors are the
// chronological tail, and Summary/Chrome export still balance.
func TestFaultStormDropAccounting(t *testing.T) {
	const cap = 64
	tr := New(cap)
	total := uint64(0)
	var all []Event
	emit := func(at sim.Time, k Kind, subj string, a0, a1, a2 int64) {
		tr.Emit(at, k, subj, a0, a1, a2)
		all = append(all, Event{At: at, Kind: k, Subject: subj, A0: a0, A1: a1, A2: a2})
		total++
	}
	// 16 crashing hosts, 20 resident VMs each: far beyond the ring.
	for h := 0; h < 16; h++ {
		at := sim.Time(h * 1000)
		emit(at, KindHostFault, "host", int64(h), 600_000_000_000, 0)
		for v := 0; v < 20; v++ {
			emit(at, KindVMCrash, "vm", int64(h), 2, 0)
			switch v % 3 {
			case 0:
				emit(at+1, KindVMRestart, "vm", int64((h+1)%16), 1, 60_000_000_000)
			case 1:
				emit(at+1, KindVMLost, "vm", 0, 2, 0)
			}
		}
		emit(at+2, KindHostRecover, "host", int64(h), 0, 0)
	}
	if tr.Total() != total {
		t.Fatalf("total=%d want %d", tr.Total(), total)
	}
	if want := total - cap; tr.Dropped() != want {
		t.Fatalf("dropped=%d want %d", tr.Dropped(), want)
	}
	events := tr.Events()
	if len(events) != cap {
		t.Fatalf("len(events)=%d want %d", len(events), cap)
	}
	// Survivors must be exactly the emission-order tail — no event corrupted
	// or reordered by the wrap.
	tail := all[len(all)-cap:]
	for i := range events {
		if events[i] != tail[i] {
			t.Fatalf("survivor %d = %+v, want emitted tail %+v", i, events[i], tail[i])
		}
	}
	// Summary must report exactly the surviving per-kind counts plus the
	// emitted/dropped trailer.
	kindCount := map[Kind]int{}
	for _, ev := range events {
		kindCount[ev.Kind]++
	}
	s := tr.Summary()
	for k, n := range kindCount {
		want := fmt.Sprintf("%s %d", k, n)
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, fmt.Sprintf("%d emitted", total)) ||
		!strings.Contains(s, fmt.Sprintf("%d dropped", total-cap)) {
		t.Fatalf("summary missing drop trailer:\n%s", s)
	}
	// The Chrome export of a fault storm must stay valid JSON and carry the
	// same accounting.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData struct {
			Emitted uint64 `json:"emittedEvents"`
			Dropped uint64 `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fault-storm export is not valid JSON: %v", err)
	}
	if doc.OtherData.Emitted != total || doc.OtherData.Dropped != total-cap {
		t.Fatalf("otherData emitted=%d dropped=%d want %d/%d",
			doc.OtherData.Emitted, doc.OtherData.Dropped, total, total-cap)
	}
}

// TestFaultKindMetadata pins the new fault-plane kinds: printable names,
// fleet category, and numbering appended after the pre-existing kinds so
// recorded traces keep decoding.
func TestFaultKindMetadata(t *testing.T) {
	for k, name := range map[Kind]string{
		KindHostFault:   "host-fault",
		KindHostRecover: "host-recover",
		KindVMCrash:     "vm-crash",
		KindVMRestart:   "vm-restart",
		KindVMLost:      "vm-lost",
	} {
		if k.String() != name {
			t.Errorf("kind %d String()=%q want %q", k, k.String(), name)
		}
		if k.Category() != "fleet" {
			t.Errorf("kind %v category %q, want fleet", k, k.Category())
		}
		if k <= KindMigCost || k >= numKinds {
			t.Errorf("kind %v numbered %d, must sit after KindMigCost and before numKinds", k, k)
		}
	}
}

// TestExportFormatting pins the low-level renderers: the ts microsecond
// format, counter events, and JSON escaping of hostile subject names.
func TestExportFormatting(t *testing.T) {
	for _, tc := range []struct {
		at   sim.Time
		want string
	}{
		{0, "0.000"},
		{999, "0.999"},
		{1000, "1.000"},
		{1_234_567, "1234.567"},
		{sim.Time(3 * sim.Second), "3000000.000"},
	} {
		if got := ts(tc.at); got != tc.want {
			t.Fatalf("ts(%d)=%q want %q", tc.at, got, tc.want)
		}
	}

	// Counter formatting: vCPU speed exports as a milli-scaled C event.
	tr := New(0)
	tr.Emit(1500, KindVCPUSpeed, "vm", 2, 1_234_567, 0)
	tr.Emit(2500, KindCapSample, "vm", 1, 900, 0)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"ph":"C"`,
		`"name":"speed_milli/v2","args":{"value":1234}`,
		`"ts":1.500`,
		`"name":"capacity/v1","args":{"value":900}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("counter export missing %s:\n%s", want, out)
		}
	}

	// Escaping: subjects with quotes, backslashes and control bytes must
	// export as valid JSON with the name preserved.
	hostile := "task\"q\\b\nnl\tt"
	tr = New(0)
	tr.Emit(10, KindTaskWakeup, hostile, 0, 0, -1)
	buf.Reset()
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("hostile subject broke the JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if name, _ := ev["name"].(string); name == "wakeup:"+hostile {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped wakeup event lost its name:\n%s", buf.String())
	}

	// SpanTrack args render in caller order with escaped keys.
	track := SpanTrack{Process: "attribution", Threads: []SpanThread{{
		Name: "t\"x",
		Slices: []SpanSlice{{
			Name: "s", From: 100, To: 1100,
			Args: []SpanArg{{Key: "run_ns", Value: 7}, {Key: "wall_ns", Value: 1000}},
		}},
	}}}
	tr = New(0)
	buf.Reset()
	if err := tr.WriteChrome(&buf, []SpanTrack{track}, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &struct{}{}); err != nil {
		t.Fatalf("span track broke the JSON: %v", err)
	}
	for _, want := range []string{
		`"args":{"run_ns":7,"wall_ns":1000}`,
		`"ts":0.100,"dur":1.000`,
		`"name":"attribution"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("span track export missing %s:\n%s", want, buf.String())
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, KindBalance, "x", 0, 0, 0) // must not panic
	if tr.Enabled() || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must look empty")
	}
	if got := tr.Summary(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil summary: %q", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace is not valid JSON: %v", err)
	}
}

// TestEmitAllocatesNothing pins the disabled emit; TestRingEmitAllocBudget
// pins the enabled one.
func TestEmitAllocatesNothing(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		nilTr.Emit(0, KindBalance, "vm", 1, 2, 3)
	}); n != 0 {
		t.Fatalf("disabled emit allocates %v per event", n)
	}
}

func TestKindStringsAndCategoriesTotal(t *testing.T) {
	for k := Kind(0); k <= KindVtop; k++ {
		if k.String() == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
		switch k.Category() {
		case "host", "guest", "vsched":
		default:
			t.Fatalf("kind %v has category %q", k, k.Category())
		}
	}
	if Kind(200).String() != "invalid" {
		t.Fatal("out-of-range kind must stringify as invalid")
	}
}

// traceScenario runs a deterministic contended scenario with the tracer
// attached and returns the exported Chrome JSON.
func traceScenario(t *testing.T) []byte {
	t.Helper()
	tr := New(0)
	contendedEntity(t, func(h *host.Host, e *host.Entity) { AttachHost(tr, h) })
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return buf.Bytes()
}

func TestChromeExportWellFormed(t *testing.T) {
	raw := traceScenario(t)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit=%q", doc.Unit)
	}
	phases := map[string]int{}
	pids := map[float64]int{}
	sliceNames := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid]++
		}
		if ph == "X" {
			name, _ := ev["name"].(string)
			sliceNames[name]++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("X event without dur: %v", ev)
			}
		}
	}
	if phases["M"] < 4 {
		t.Fatalf("want process/thread metadata, got %d M events", phases["M"])
	}
	if phases["X"] == 0 {
		t.Fatal("no interval slices exported")
	}
	if phases["i"] == 0 {
		t.Fatal("no instant events exported")
	}
	if pids[pidHost] == 0 {
		t.Fatal("no host-process events")
	}
	if sliceNames["running"] == 0 || sliceNames["runnable"] == 0 {
		t.Fatalf("want running+runnable slices, got %v", sliceNames)
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	a := traceScenario(t)
	b := traceScenario(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs exported different trace bytes")
	}
}

func TestSummaryCountsByCategory(t *testing.T) {
	tr := New(0)
	contendedEntity(t, func(h *host.Host, e *host.Entity) { AttachHost(tr, h) })
	s := tr.Summary()
	if !strings.Contains(s, "host") || !strings.Contains(s, "entity-state") {
		t.Fatalf("summary missing host counts:\n%s", s)
	}
	if !strings.Contains(s, "0 dropped") {
		t.Fatalf("summary should report drops:\n%s", s)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(sim.Time(i), KindTaskWakeup, "vm", 1, 2, 3)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(sim.Time(i), KindTaskWakeup, "vm", 1, 2, 3)
	}
}

// BenchmarkEmitFleetSubjects measures a ring emit cycling over a micro
// fleet's 2,000 distinct subjects, where the intern cache, not the one hot
// subject of BenchmarkEmitEnabled, decides the cost.
func BenchmarkEmitFleetSubjects(b *testing.B) {
	subjects := fleetSubjects(2000)
	tr := New(1 << 12)
	for _, s := range subjects {
		tr.Emit(0, KindTaskWakeup, s, 1, 2, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(sim.Time(i), KindTaskOn, subjects[i%len(subjects)], 1, 2, 3)
	}
}
