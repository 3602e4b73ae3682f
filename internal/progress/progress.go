// Package progress is the wire between a running simulation and the live
// observability plane (internal/obshttp): a bounded, drop-counting progress
// bus plus an atomically-published metrics mirror.
//
// The design constraint is that observation must be inert by construction.
// Simulation results are determinism-gated byte for byte, so a publisher may
// never block on a consumer, never take a lock a consumer holds, and never
// read anything back from the observation side. Publishers therefore write
// fixed-size snapshots at their existing safepoints (epoch boundaries, trial
// completion) through lock-free/atomic handoffs:
//
//   - Bus is a power-of-two ring of plain-old-data Event slots guarded by
//     per-slot seqlock versions. Publish claims a sequence number with one
//     atomic add, writes the slot, and flips the version — it never blocks
//     and never allocates. Readers chase the ring with a private cursor; a
//     reader that falls a full ring behind skips forward and counts exactly
//     how many events it lost. Slow consumers lose history, never slow the
//     simulation.
//   - Mirror hands whole metric snapshots to scrapers through one atomic
//     pointer swap. A snapshot is a flat, name-sorted list of (name, value)
//     pairs, filled through the emit(name, value) callback that
//     metrics.Registry.VisitNumeric and telemetry sources take, so a
//     publisher passes those readers the callback and copies nothing.
//     Scrapers always see a complete, internally-consistent snapshot;
//     publishers never wait for them.
//
// Event is strictly POD — no pointers, no strings — so a slot can hold it as
// atomic 64-bit words, and a torn seqlock read is harmless garbage that
// validation discards, rather than a corrupt pointer the garbage collector
// could trip over. Run/experiment names travel as indices into the bus's
// append-only label table.
package progress

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind classifies a progress event.
type Kind uint8

const (
	// KindRunStart opens a run: Total carries the planned unit count
	// (harness trials, macro arrivals).
	KindRunStart Kind = iota
	// KindTrialStart marks one harness (experiment, replicate) trial
	// starting; Label is the experiment ID.
	KindTrialStart
	// KindTrialDone marks a trial settling; Retries carries the attempts
	// consumed, Detail a truncated error for failures, and Done/Failed the
	// run-level tallies after this trial.
	KindTrialDone
	// KindEpoch is one macro-fleet integration step: the cumulative
	// conservation ledger (Admitted..Pending), utilization and imbalance.
	KindEpoch
	// KindFault is one applied host fault event; Host is the victim and
	// Detail names the fault kind.
	KindFault
	// KindRecovery is one successful crash-victim restart; Host is the new
	// placement.
	KindRecovery
	// KindRunDone closes a run with the final ledger.
	KindRunDone
)

var kindNames = [...]string{
	KindRunStart:   "run_start",
	KindTrialStart: "trial_start",
	KindTrialDone:  "trial_done",
	KindEpoch:      "epoch",
	KindFault:      "fault",
	KindRecovery:   "recovery",
	KindRunDone:    "run_done",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size progress record. It is deliberately plain old
// data: the bus hands slots between goroutines under a seqlock, where a torn
// read of a pointer would be unsafe but a torn read of numbers is merely
// discarded. Label and Detail index the bus label table (0 = empty).
type Event struct {
	Seq       uint64
	Kind      Kind
	Label     int32
	Detail    int32
	Replicate int32
	// At is virtual time in nanoseconds.
	At    int64
	Epoch int64
	// Conservation ledger (cumulative): Admitted == Completed + Lost +
	// Rejected + Running + Pending at every safepoint.
	Admitted  int64
	Completed int64
	Lost      int64
	Rejected  int64
	Running   int64
	Pending   int64
	// Harness trial accounting.
	Done    int64
	Total   int64
	Failed  int64
	Retries int64
	// Fault plane.
	Host int64
	// Fleet gauges.
	UtilMean float64
	DI       float64
}

// WireEvent is the JSON form streamed over /runs/{id}/events: Label/Detail
// resolved through the label table, zero-valued fields elided.
type WireEvent struct {
	Seq       uint64  `json:"seq"`
	Kind      string  `json:"kind"`
	Label     string  `json:"label,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	Replicate int32   `json:"replicate,omitempty"`
	AtNS      int64   `json:"at_ns"`
	Epoch     int64   `json:"epoch,omitempty"`
	Admitted  int64   `json:"admitted,omitempty"`
	Completed int64   `json:"completed,omitempty"`
	Lost      int64   `json:"lost,omitempty"`
	Rejected  int64   `json:"rejected,omitempty"`
	Running   int64   `json:"running,omitempty"`
	Pending   int64   `json:"pending,omitempty"`
	Done      int64   `json:"done,omitempty"`
	Total     int64   `json:"total,omitempty"`
	Failed    int64   `json:"failed,omitempty"`
	Retries   int64   `json:"retries,omitempty"`
	Host      int64   `json:"host,omitempty"`
	UtilMean  float64 `json:"util_mean,omitempty"`
	DI        float64 `json:"di,omitempty"`
}

// eventWords is Event's size in 64-bit words.
const eventWords = unsafe.Sizeof(Event{}) / 8

// Event must be a whole number of words to travel as them.
var _ [0]struct{} = [unsafe.Sizeof(Event{}) % 8]struct{}{}

// slot is one ring cell. ver is the seqlock: 0 empty, 2s+1 while the writer
// of sequence s is copying, 2s+2 once sequence s is published. The payload
// is stored as atomic words, so a reader copying a slot while a writer
// reclaims it reads torn numbers that the version check discards, not a
// data race.
type slot struct {
	ver atomic.Uint64
	ev  [eventWords]atomic.Uint64
}

// Bus is the bounded multi-producer broadcast ring. Publishing is lock-free
// (one atomic add to claim a sequence, one store to publish) and readers are
// pull-only, so nothing a consumer does can ever delay a publisher.
type Bus struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64
	done  atomic.Bool

	labelMu  sync.Mutex
	labelIdx map[string]int32
	labels   atomic.Pointer[[]string]
}

// DefaultBusSize is the ring capacity when NewBus is given <= 0.
const DefaultBusSize = 4096

// NewBus returns a bus with capacity rounded up to a power of two (minimum
// 8).
func NewBus(size int) *Bus {
	if size <= 0 {
		size = DefaultBusSize
	}
	n := 8
	for n < size {
		n <<= 1
	}
	b := &Bus{slots: make([]slot, n), mask: uint64(n - 1), labelIdx: make(map[string]int32)}
	empty := []string{""}
	b.labels.Store(&empty)
	return b
}

// Cap returns the ring capacity.
func (b *Bus) Cap() int { return len(b.slots) }

// Seq returns how many events have been published (claimed) so far.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	return b.next.Load()
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

// Label interns name in the append-only label table and returns its index.
// Index 0 is always the empty string. Safe for concurrent use; intended for
// setup paths and rare events (trial errors), not per-event hot paths —
// publishers should keep the returned index.
func (b *Bus) Label(name string) int32 {
	if b == nil || name == "" {
		return 0
	}
	b.labelMu.Lock()
	defer b.labelMu.Unlock()
	if i, ok := b.labelIdx[name]; ok {
		return i
	}
	old := *b.labels.Load()
	next := make([]string, len(old)+1)
	copy(next, old)
	next[len(old)] = name
	i := int32(len(old))
	b.labelIdx[name] = i
	b.labels.Store(&next)
	return i
}

// LabelName resolves a label index; out-of-range indices resolve to "".
// Lock-free: reads an immutable snapshot of the table.
func (b *Bus) LabelName(i int32) string {
	if b == nil || i <= 0 {
		return ""
	}
	tbl := *b.labels.Load()
	if int(i) >= len(tbl) {
		return ""
	}
	return tbl[i]
}

// Publish writes one event to the ring. It assigns ev.Seq, never blocks on
// consumers, and performs no allocation. Multiple publishers may call it
// concurrently; the only wait is a Gosched spin in the pathological case of
// a publisher lapping another publisher by a full ring, which bounded
// publish rates never reach.
func (b *Bus) Publish(ev Event) uint64 {
	seq := b.next.Add(1) - 1
	s := &b.slots[seq&b.mask]
	prev := uint64(0)
	if seq >= uint64(len(b.slots)) {
		prev = 2*(seq-uint64(len(b.slots))) + 2
	}
	for !s.ver.CompareAndSwap(prev, 2*seq+1) {
		runtime.Gosched()
	}
	ev.Seq = seq
	w := (*[eventWords]uint64)(unsafe.Pointer(&ev))
	for i := range s.ev {
		s.ev[i].Store(w[i])
	}
	s.ver.Store(2*seq + 2)
	return seq
}

// Wire resolves ev's label indices into the streamed JSON form.
func (b *Bus) Wire(ev Event) WireEvent {
	return WireEvent{
		Seq:       ev.Seq,
		Kind:      ev.Kind.String(),
		Label:     b.LabelName(ev.Label),
		Detail:    b.LabelName(ev.Detail),
		Replicate: ev.Replicate,
		AtNS:      ev.At,
		Epoch:     ev.Epoch,
		Admitted:  ev.Admitted,
		Completed: ev.Completed,
		Lost:      ev.Lost,
		Rejected:  ev.Rejected,
		Running:   ev.Running,
		Pending:   ev.Pending,
		Done:      ev.Done,
		Total:     ev.Total,
		Failed:    ev.Failed,
		Retries:   ev.Retries,
		Host:      ev.Host,
		UtilMean:  ev.UtilMean,
		DI:        ev.DI,
	}
}

// Reader is one consumer's private cursor into the bus. Not safe for
// concurrent use by multiple goroutines; create one Reader per consumer.
type Reader struct {
	b       *Bus
	cursor  uint64
	dropped uint64
}

// NewReader returns a reader positioned at sequence 0 (fromStart) or at the
// current head, seeing only future events. A fromStart reader attaching
// after the ring has already lapped starts at the oldest retained event
// with the unretrievable prefix counted in Dropped(), so received + dropped
// always equals the number published.
func (b *Bus) NewReader(fromStart bool) *Reader {
	r := &Reader{b: b}
	head := b.next.Load()
	if fromStart {
		if head > uint64(len(b.slots)) {
			r.cursor = head - uint64(len(b.slots))
			r.dropped = r.cursor
		}
	} else {
		r.cursor = head
	}
	return r
}

// Dropped returns how many events this reader has lost to ring overwrite.
func (r *Reader) Dropped() uint64 { return r.dropped }

// Drained reports whether the reader has consumed everything published so
// far.
func (r *Reader) Drained() bool { return r.cursor >= r.b.next.Load() }

// Poll copies available events into buf and returns how many were written.
// Never blocks: it returns 0 when the bus is empty or the next slot is still
// being written. Events lost to overwrite are skipped and added to
// Dropped().
func (r *Reader) Poll(buf []Event) int {
	n := 0
	for n < len(buf) {
		head := r.b.next.Load()
		if r.cursor >= head {
			break
		}
		if size := uint64(len(r.b.slots)); head > size {
			if oldest := head - size; r.cursor < oldest {
				r.dropped += oldest - r.cursor
				r.cursor = oldest
			}
		}
		s := &r.b.slots[r.cursor&r.b.mask]
		want := 2*r.cursor + 2
		v1 := s.ver.Load()
		if v1 < want {
			// Claimed but not yet published: come back later.
			break
		}
		if v1 > want {
			// Overwritten between the head check and here.
			r.dropped++
			r.cursor++
			continue
		}
		var w [eventWords]uint64
		for i := range w {
			w[i] = s.ev[i].Load()
		}
		if s.ver.Load() != v1 {
			// Torn read: the slot was reclaimed mid-copy. Re-examine it.
			continue
		}
		buf[n] = *(*Event)(unsafe.Pointer(&w))
		n++
		r.cursor++
	}
	return n
}
