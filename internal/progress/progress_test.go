package progress

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestBusPublishPollOrder(t *testing.T) {
	b := newBus(16)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: KindEpoch, Epoch: int64(i)})
	}
	r := b.NewReader()
	buf := make([]Event, 16)
	n := r.Poll(buf)
	if n != 10 {
		t.Fatalf("Poll = %d, want 10", n)
	}
	for i := 0; i < n; i++ {
		if buf[i].Seq != uint64(i) || buf[i].Epoch != int64(i) {
			t.Fatalf("event %d: seq=%d epoch=%d", i, buf[i].Seq, buf[i].Epoch)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
	if !r.Drained() {
		t.Fatalf("reader should be drained")
	}
}

func TestReaderDropAccounting(t *testing.T) {
	b := newBus(8)
	r := b.NewReader()
	// Publish 3 laps of the ring: 24 events into 8 slots. The lagging
	// reader must see exactly the last 8 and count exactly 16 dropped.
	for i := 0; i < 24; i++ {
		b.Publish(Event{Epoch: int64(i)})
	}
	var got []Event
	buf := make([]Event, 4)
	for {
		n := r.Poll(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != 8 {
		t.Fatalf("received %d events, want 8", len(got))
	}
	for i, ev := range got {
		if want := int64(16 + i); ev.Epoch != want {
			t.Fatalf("event %d: epoch=%d, want %d", i, ev.Epoch, want)
		}
	}
	if r.Dropped() != 16 {
		t.Fatalf("dropped = %d, want 16", r.Dropped())
	}
	if rec, drop := uint64(len(got)), r.Dropped(); rec+drop != b.Seq() {
		t.Fatalf("received(%d) + dropped(%d) != published(%d)", rec, drop, b.Seq())
	}
}

// TestConcurrentPublishers hammers the bus from several goroutines while a
// reader drains, then checks exact accounting: every published event is
// either received intact or counted as dropped, with no duplicates and no
// torn payloads. Run under -race in CI.
func TestConcurrentPublishers(t *testing.T) {
	const (
		producers = 4
		perProd   = 5000
	)
	b := newBus(64)
	r := b.NewReader()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				// Payload fields all derived from one value so a torn
				// read is detectable.
				v := int64(p*perProd + i)
				b.Publish(Event{Kind: KindEpoch, Epoch: v, Done: v, Total: -v})
			}
		}(p)
	}
	donePub := make(chan struct{})
	go func() { wg.Wait(); close(donePub) }()

	var received uint64
	seen := make(map[uint64]bool)
	buf := make([]Event, 32)
	finished := false
	for !finished {
		select {
		case <-donePub:
			finished = true
		default:
		}
		for {
			n := r.Poll(buf)
			if n == 0 {
				break
			}
			for _, ev := range buf[:n] {
				if ev.Done != ev.Epoch || ev.Total != -ev.Epoch {
					t.Fatalf("torn event: seq=%d epoch=%d done=%d total=%d",
						ev.Seq, ev.Epoch, ev.Done, ev.Total)
				}
				if seen[ev.Seq] {
					t.Fatalf("duplicate seq %d", ev.Seq)
				}
				seen[ev.Seq] = true
				received++
			}
		}
	}
	total := uint64(producers * perProd)
	if b.Seq() != total {
		t.Fatalf("published %d, want %d", b.Seq(), total)
	}
	if received+r.Dropped() != total {
		t.Fatalf("received(%d) + dropped(%d) != published(%d)", received, r.Dropped(), total)
	}
	if received == 0 {
		t.Fatalf("reader received nothing")
	}
}

// TestEventJSON pins the streamed bytes of a trial event: field names,
// order, the kind by name, and zero fields elided.
func TestEventJSON(t *testing.T) {
	ev := Event{Seq: 3, Kind: KindTrialDone, Label: "fig14", At: 60e9, Done: 4, Total: 6}
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"seq":3,"kind":"trial_done","label":"fig14","at_ns":60000000000,"done":4,"total":6}`
	if string(raw) != want {
		t.Fatalf("event JSON = %s, want %s", raw, want)
	}
}

func TestMirrorLastWins(t *testing.T) {
	m := &Mirror{}
	if m.Load() != nil {
		t.Fatalf("empty mirror must load nil")
	}
	m.Publish(func(emit func(string, float64)) {
		emit("z.series", 1)
		emit("b.metric", 2)
		emit("a.metric", 3)
	})
	first := m.Load()
	if len(first) != 3 {
		t.Fatalf("len = %d", len(first))
	}
	// Sorted by name.
	if first[0].Name != "a.metric" || first[1].Name != "b.metric" || first[2].Name != "z.series" {
		t.Fatalf("order: %+v", first)
	}
	m.Publish(func(emit func(string, float64)) {
		emit("a.metric", 99)
	})
	if got := m.Load(); len(got) != 1 || got[0].Value != 99 {
		t.Fatalf("second publish not visible: %+v", got)
	}
	// The first snapshot handed out must be immutable.
	if first[0].Value != 3 {
		t.Fatalf("earlier snapshot mutated: %+v", first)
	}
}

// TestMirrorConcurrentScrape publishes snapshots while readers load them;
// under -race this proves the handoff is clean, and each loaded snapshot
// must be internally consistent (all values from the same publish).
func TestMirrorConcurrentScrape(t *testing.T) {
	m := &Mirror{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := m.Load()
				if len(s) == 0 {
					continue
				}
				want := s[0].Value
				for _, sm := range s {
					if sm.Value != want {
						t.Errorf("mixed snapshot: %+v", s)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		v := float64(i)
		m.Publish(func(emit func(string, float64)) {
			emit("a", v)
			emit("b", v)
			emit("c", v)
		})
	}
	close(stop)
	wg.Wait()
}

// TestNilPublisherSafe: a detached run publishes through a nil bus and a
// nil mirror, so every method of both is a no-op on nil.
func TestNilPublisherSafe(t *testing.T) {
	var b *Bus
	b.Publish(Event{Kind: KindEpoch})
	if b.Seq() != 0 || b.Done() {
		t.Fatalf("nil bus accessors not safe")
	}
	b.MarkDone()
	var m *Mirror
	if m.Load() != nil {
		t.Fatalf("nil mirror accessors not safe")
	}
	m.Publish(func(emit func(string, float64)) {})
}

func TestMarkDone(t *testing.T) {
	b := NewBus()
	if b.Done() {
		t.Fatalf("fresh bus marked done")
	}
	b.MarkDone()
	if !b.Done() {
		t.Fatalf("MarkDone did not stick")
	}
}

func TestPublishAllocFree(t *testing.T) {
	b := NewBus()
	ev := Event{Kind: KindEpoch, Epoch: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Publish(ev)
	})
	if allocs != 0 {
		t.Fatalf("Publish allocates %.1f per call, want 0", allocs)
	}
}
