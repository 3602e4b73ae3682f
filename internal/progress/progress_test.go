package progress

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestBusPublishPollOrder(t *testing.T) {
	b := NewBus(16)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: KindEpoch, Epoch: int64(i)})
	}
	r := b.NewReader(true)
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

func TestBusCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultBusSize}, {-1, DefaultBusSize}, {1, 8}, {8, 8}, {9, 16}, {100, 128},
	} {
		if got := NewBus(tc.in).Cap(); got != tc.want {
			t.Errorf("NewBus(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestReaderDropAccounting(t *testing.T) {
	b := NewBus(8)
	r := b.NewReader(true)
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

func TestReaderFromHeadSeesOnlyFuture(t *testing.T) {
	b := NewBus(8)
	b.Publish(Event{Epoch: 1})
	r := b.NewReader(false)
	b.Publish(Event{Epoch: 2})
	buf := make([]Event, 8)
	n := r.Poll(buf)
	if n != 1 || buf[0].Epoch != 2 {
		t.Fatalf("Poll = %d events (first epoch %d), want exactly the post-subscribe event", n, buf[0].Epoch)
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
	b := NewBus(64)
	r := b.NewReader(true)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				// Payload fields all derived from one value so a torn
				// read is detectable.
				v := int64(p*perProd + i)
				b.Publish(Event{Kind: KindEpoch, Epoch: v, Admitted: v, Completed: -v})
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
				if ev.Admitted != ev.Epoch || ev.Completed != -ev.Epoch {
					t.Fatalf("torn event: seq=%d epoch=%d admitted=%d completed=%d",
						ev.Seq, ev.Epoch, ev.Admitted, ev.Completed)
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

func TestLabelTable(t *testing.T) {
	b := NewBus(8)
	i1 := b.Label("fleetscale")
	i2 := b.Label("obsplane")
	if i1 == 0 || i2 == 0 || i1 == i2 {
		t.Fatalf("label indices: %d, %d", i1, i2)
	}
	if b.Label("fleetscale") != i1 {
		t.Fatalf("re-interning changed the index")
	}
	if got := b.LabelName(i2); got != "obsplane" {
		t.Fatalf("LabelName(%d) = %q", i2, got)
	}
	if b.LabelName(0) != "" || b.LabelName(999) != "" || b.LabelName(-3) != "" {
		t.Fatalf("out-of-range labels must resolve to empty")
	}
}

func TestLabelTableConcurrent(t *testing.T) {
	b := NewBus(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			names := []string{"a", "b", "c", "d"}
			for i := 0; i < 500; i++ {
				n := names[i%len(names)]
				idx := b.Label(n)
				if got := b.LabelName(idx); got != n {
					t.Errorf("LabelName(Label(%q)) = %q", n, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestWireEventJSON(t *testing.T) {
	b := NewBus(8)
	lbl := b.Label("fleetscale")
	ev := Event{Kind: KindEpoch, Label: lbl, At: 60e9, Epoch: 1, Admitted: 10, Completed: 4, Running: 6}
	b.Publish(ev)
	r := b.NewReader(true)
	buf := make([]Event, 1)
	if r.Poll(buf) != 1 {
		t.Fatalf("no event")
	}
	raw, err := json.Marshal(b.Wire(buf[0]))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "epoch" || m["label"] != "fleetscale" || m["admitted"] != float64(10) {
		t.Fatalf("wire JSON = %s", raw)
	}
	if _, ok := m["lost"]; ok {
		t.Fatalf("zero-valued field not elided: %s", raw)
	}
}

func TestMirrorLastWins(t *testing.T) {
	m := &Mirror{}
	if m.Load() != nil || m.Published() != 0 {
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
	if m.Published() != 2 {
		t.Fatalf("published = %d", m.Published())
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

func TestNilPublisherSafe(t *testing.T) {
	var p *Publisher
	p.Publish(Event{Kind: KindEpoch})
	p.PublishMirror(func(emit func(string, float64)) { emit("x", 1) })
	p.MarkDone()
	if p.Label("x") != 0 {
		t.Fatalf("nil publisher Label != 0")
	}
	var b *Bus
	if b.Seq() != 0 || b.Done() || b.Label("x") != 0 || b.LabelName(1) != "" {
		t.Fatalf("nil bus accessors not safe")
	}
	b.MarkDone()
	var m *Mirror
	if m.Load() != nil || m.Published() != 0 {
		t.Fatalf("nil mirror accessors not safe")
	}
	m.Publish(func(emit func(string, float64)) {})
}

func TestMarkDone(t *testing.T) {
	p := NewPublisher(8)
	if p.Bus.Done() {
		t.Fatalf("fresh bus marked done")
	}
	p.MarkDone()
	if !p.Bus.Done() {
		t.Fatalf("MarkDone did not stick")
	}
}

func TestPublishAllocFree(t *testing.T) {
	b := NewBus(64)
	ev := Event{Kind: KindEpoch, Epoch: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Publish(ev)
	})
	if allocs != 0 {
		t.Fatalf("Publish allocates %.1f per call, want 0", allocs)
	}
}
