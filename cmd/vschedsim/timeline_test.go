package main

import (
	"bytes"
	"strings"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// contended runs a 1-thread host for 100ms with one entity sharing its
// thread with a 5ms/5ms pattern contender, tapped by a ring of the given
// capacity. It returns the ring, the entity and the end time.
func contended(capacity int) (*vtrace.Tracer, *host.Entity, sim.Time) {
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 1
	h := host.New(eng, cfg)
	ring := vtrace.New(capacity)
	vtrace.AttachHost(ring, h)
	e := h.NewEntity("v", h.Thread(0), host.DefaultWeight, host.NopClient{})
	e.Wake()
	host.NewPatternContender(h, "p", h.Thread(0), 5*sim.Millisecond, 5*sim.Millisecond, 0)
	eng.RunFor(100 * sim.Millisecond)
	return ring, e, eng.Now()
}

func TestTimelineRecordsAndIntegrates(t *testing.T) {
	ring, e, end := contended(0)
	hs, ok := histories(ring, []*host.Entity{e}, 0)
	if !ok || len(hs) != 1 {
		t.Fatalf("histories = %d, %v", len(hs), ok)
	}
	h := hs[0]
	if len(h.trans) == 0 {
		t.Fatal("no transitions read from the ring")
	}
	if frac := h.runningFraction(0, end); frac < 0.4 || frac > 0.6 {
		t.Fatalf("running fraction=%v want ~0.5", frac)
	}
	strip := h.render(50, 0, end)
	if len(strip) != 50 {
		t.Fatalf("strip len=%d", len(strip))
	}
	if !strings.Contains(strip, "#") || !strings.Contains(strip, ".") {
		t.Fatalf("strip should show both running and waiting: %q", strip)
	}
}

func TestRenderEdgeCases(t *testing.T) {
	// One transition sits exactly at the window start: the strip begins in
	// the state it enters.
	h := history{
		trans: []transition{
			{at: 0, from: host.Blocked, to: host.Running},
			{at: 25, from: host.Running, to: host.Runnable},
			{at: 50, from: host.Runnable, to: host.Throttled},
			{at: 75, from: host.Throttled, to: host.Blocked},
		},
		now: host.Blocked,
	}
	if got := h.render(4, 0, 100); got != "#.t " {
		t.Fatalf("four-glyph strip = %q, want %q", got, "#.t ")
	}
	if got := h.runningFraction(0, 100); got != 0.25 {
		t.Fatalf("running fraction = %v, want 0.25", got)
	}
	if got := h.render(2, 50, 100); got != "t " {
		t.Fatalf("strip from a transition instant = %q, want %q", got, "t ")
	}
	if h.render(0, 0, 10) != "" {
		t.Fatal("zero width must render empty")
	}
	if h.render(10, 10, 10) != "" {
		t.Fatal("empty interval must render empty")
	}
	if h.runningFraction(10, 10) != 0 {
		t.Fatal("degenerate fraction must be 0")
	}
	idle := history{now: host.Blocked}
	if got := idle.render(4, 0, 100); got != "    " {
		t.Fatalf("blocked strip wrong: %q", got)
	}
}

// TestStripsFromWrappedRing: a ring that has wrapped but still holds every
// event after the window start draws the same strips as one that never
// wrapped; a ring that lost part of the window prints no strip and warns.
func TestStripsFromWrappedRing(t *testing.T) {
	const span = 20 * sim.Millisecond
	full, _, end := contended(0)
	if full.Dropped() != 0 {
		t.Fatalf("reference ring dropped %d events", full.Dropped())
	}
	from := end.Add(-span)
	inWindow := 0
	for _, ev := range full.Events() {
		if ev.At > from {
			inWindow++
		}
	}
	if inWindow < 2 || inWindow+1 >= len(full.Events()) {
		t.Fatalf("%d of %d events in the window: scenario too small", inWindow, len(full.Events()))
	}
	strips := func(capacity int) (stdout, stderr string, dropped uint64) {
		ring, e, now := contended(capacity)
		var o, w bytes.Buffer
		writeStrips(&o, &w, ring, []*host.Entity{e}, now, span)
		return o.String(), w.String(), ring.Dropped()
	}
	want, _, _ := strips(0)
	if !strings.Contains(want, "#") {
		t.Fatalf("reference strips missing: %q", want)
	}

	got, warn, dropped := strips(inWindow + 1)
	if dropped == 0 {
		t.Fatal("small ring did not wrap")
	}
	if got != want || warn != "" {
		t.Fatalf("wrapped ring that holds the window:\n got %q (stderr %q)\nwant %q", got, warn, want)
	}

	got, warn, _ = strips(inWindow - 1)
	if got != "" {
		t.Fatalf("ring missing part of the window printed strips: %q", got)
	}
	if !strings.Contains(warn, "no longer holds the final 20ms") {
		t.Fatalf("no warning on stderr: %q", warn)
	}
}
