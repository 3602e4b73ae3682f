// Package progress is the wire between a running simulation and the live
// observability plane (internal/obshttp): a bounded, drop-counting progress
// bus plus an atomically-published metrics mirror.
//
// The design constraint is that observation must be inert by construction.
// Simulation results are determinism-gated byte for byte, so a publisher may
// never wait on a consumer's pace and never read anything back from the
// observation side. Publishers therefore write small records at their
// existing safepoints (trial settlement, a run-loop advance) through bounded
// handoffs:
//
//   - Bus is a fixed ring of Events under one mutex. Publish and a reader's
//     Poll each hold the lock only to copy one slot, so a publisher waits at
//     most one slot copy and never allocates. Readers chase the ring with a
//     private cursor; a reader that falls a full ring behind skips forward
//     and counts exactly how many events it lost. Slow consumers lose
//     history, never slow the simulation.
//   - Mirror hands whole metric snapshots to scrapers through one atomic
//     pointer swap. A snapshot is a flat, name-sorted list of (name, value)
//     pairs, filled through the emit(name, value) callback that
//     metrics.Registry.VisitNumeric and telemetry sources take, so a
//     publisher passes those readers the callback and copies nothing.
//     Scrapers always see a complete, internally-consistent snapshot;
//     publishers never wait for them.
package progress

import (
	"sync"
	"sync/atomic"
)

// Kind classifies a progress event.
type Kind uint8

const (
	// KindRunStart opens a run: Total carries the planned unit count
	// (harness trials, vschedsim virtual seconds).
	KindRunStart Kind = iota
	// KindTrialStart marks one harness (experiment, replicate) trial
	// starting; Label is the experiment ID.
	KindTrialStart
	// KindTrialDone marks a trial settling; Detail carries a truncated error
	// for failures, Done/Failed the run-level tallies after this trial, and
	// WallNS the trial's wall time.
	KindTrialDone
	// KindEpoch is one step of a stepped run (a vschedsim virtual second):
	// Epoch counts steps, Done/Total the progress through the run.
	KindEpoch
	// KindRunDone closes a run with its final tallies.
	KindRunDone
)

var kindNames = [...]string{
	KindRunStart:   "run_start",
	KindTrialStart: "trial_start",
	KindTrialDone:  "trial_done",
	KindEpoch:      "epoch",
	KindRunDone:    "run_done",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText encodes the kind by name, so an Event streams as
// {"kind":"trial_done",...}.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one progress record, and also its streamed JSON form on
// /runs/{id}/events: zero-valued fields other than seq, kind and at_ns are
// elided.
type Event struct {
	Seq       uint64 `json:"seq"`
	Kind      Kind   `json:"kind"`
	Label     string `json:"label,omitempty"`
	Detail    string `json:"detail,omitempty"`
	Replicate int32  `json:"replicate,omitempty"`
	// At is virtual time in nanoseconds.
	At    int64 `json:"at_ns"`
	Epoch int64 `json:"epoch,omitempty"`
	// Harness trial accounting.
	Done   int64 `json:"done,omitempty"`
	Total  int64 `json:"total,omitempty"`
	Failed int64 `json:"failed,omitempty"`
	// WallNS is a settled trial's host wall time in nanoseconds.
	WallNS int64 `json:"wall_ns,omitempty"`
}

// Bus is the bounded multi-producer broadcast ring. Publishers and readers
// share one mutex held only for a slot copy, and readers are pull-only, so
// nothing a consumer does can delay a publisher by more than that.
type Bus struct {
	mu   sync.Mutex
	ring []Event
	next uint64 // events published so far; guarded by mu
	done atomic.Bool
}

// busSize is the ring capacity of every bus NewBus returns. A harness run
// publishes two events per trial and vschedsim one per virtual second, so a
// reader attaching late still sees the whole of most runs.
const busSize = 4096

// NewBus returns an empty bus.
func NewBus() *Bus { return newBus(busSize) }

// newBus returns an empty bus of n events; tests use small rings to lap.
func newBus(n int) *Bus { return &Bus{ring: make([]Event, n)} }

// Seq returns how many events have been published so far.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// MarkDone flags the run as finished so streaming consumers can drain and
// stop. Publishing after MarkDone is allowed but pointless.
func (b *Bus) MarkDone() {
	if b != nil {
		b.done.Store(true)
	}
}

// Done reports whether the run has been marked finished.
func (b *Bus) Done() bool { return b != nil && b.done.Load() }

// Publish writes one event to the ring, numbering it in its Seq. It
// allocates nothing, multiple publishers may call it concurrently, and it is
// a no-op on a nil bus, so a detached run publishes unconditionally.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ev.Seq = b.next
	b.ring[b.next%uint64(len(b.ring))] = ev
	b.next++
}

// oldest is the sequence number of the oldest event still in the ring.
// Callers hold b.mu.
func (b *Bus) oldest() uint64 {
	if size := uint64(len(b.ring)); b.next > size {
		return b.next - size
	}
	return 0
}

// Reader is one consumer's private cursor into the bus. Not safe for
// concurrent use by multiple goroutines; create one Reader per consumer.
type Reader struct {
	b       *Bus
	cursor  uint64
	dropped uint64
}

// NewReader returns a reader positioned at the oldest retained event. A
// reader attaching after the ring has already lapped counts the
// unretrievable prefix in Dropped(), so received + dropped always equals the
// number published.
func (b *Bus) NewReader() *Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	oldest := b.oldest()
	return &Reader{b: b, cursor: oldest, dropped: oldest}
}

// Dropped returns how many events this reader has lost to ring overwrite.
func (r *Reader) Dropped() uint64 { return r.dropped }

// Drained reports whether the reader has consumed everything published so
// far.
func (r *Reader) Drained() bool { return r.cursor >= r.b.Seq() }

// Poll copies available events into buf and returns how many were written.
// Never blocks beyond a slot copy: it returns 0 when the reader is drained.
// Events lost to overwrite are skipped and added to Dropped().
func (r *Reader) Poll(buf []Event) int {
	n := 0
	for n < len(buf) && r.copyNext(&buf[n]) {
		n++
	}
	return n
}

// copyNext copies the reader's next retained event into ev and advances the
// cursor, first skipping (and counting) any events lost to overwrite. It
// reports false when there is nothing left to read.
func (r *Reader) copyNext(ev *Event) bool {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if oldest := b.oldest(); r.cursor < oldest {
		r.dropped += oldest - r.cursor
		r.cursor = oldest
	}
	if r.cursor >= b.next {
		return false
	}
	*ev = b.ring[r.cursor%uint64(len(b.ring))]
	r.cursor++
	return true
}
