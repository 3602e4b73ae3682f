// Package vtrace is the structured, deterministic event-tracing layer of the
// simulator. A ring-buffered Tracer records typed events from all four
// layers — host scheduler (entity state transitions, preemptions,
// throttling, steal intervals), guest scheduler (wakeups, context switches,
// migrations, balance passes, SCHED_IDLE policy moves), vSched
// (vCap/vAct probe samples, bvs placements, ivh interventions, vtop
// updates), and the fleet layer (VM arrivals, placement decisions, live
// migrations, departures) — each stamped with virtual time.
//
// Everything is built for two properties:
//
//   - Zero cost when off. Every emit method is safe on a nil *Tracer and
//     returns immediately; events are fixed-size records in a preallocated
//     ring, so even an enabled tracer allocates nothing per event once it
//     has seen the event's subject. Subjects are strings the emitting layer
//     already holds (entity and task names), never formatted on the hot
//     path; the ring stores each as an index into the tracer's table of
//     distinct subjects, so a record holds no pointers and the garbage
//     collector never scans the ring.
//   - Determinism. Events carry only virtual time and deterministic
//     payloads, so a traced run exports byte-identical output across
//     repeated runs with the same seed.
//
// Exports: Chrome Trace Event Format JSON (load in Perfetto or
// chrome://tracing, see export.go) and an ASCII summary.
package vtrace

import (
	"unsafe"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// Kind is the type tag of an event.
type Kind uint8

const (
	// KindEntityState: host entity changed scheduling state.
	// A0=from, A1=to (host.EntityState), A2=hardware thread id the entity is
	// homed on at the transition.
	KindEntityState Kind = iota
	// KindPreempt: involuntary Running->Runnable/Throttled descheduling.
	// A0=to state.
	KindPreempt
	// KindThrottle / KindUnthrottle: CPU bandwidth quota exhausted/refilled.
	KindThrottle
	KindUnthrottle
	// KindSteal: an entity left a steal state (Runnable/Throttled) after A0
	// nanoseconds wanting the CPU without running.
	KindSteal
	// KindTaskWakeup: guest task became runnable. A0=task id, A1=target
	// vCPU, A2=id of the task that issued the wakeup (-1 when external:
	// spawn, timer, remote completion).
	KindTaskWakeup
	// KindTaskOn / KindTaskOff: task installed on / removed from vCPU A0
	// (guest context switch halves). A1=task id. For TaskOff, A2=1 when the
	// task is still runnable (preempted/yield/migrating), 0 when it left the
	// CPU because it blocked or exited.
	KindTaskOn
	KindTaskOff
	// KindTaskMigrate: task moved between vCPUs. A0=task id, A1=src, A2=dst.
	KindTaskMigrate
	// KindBalance: periodic load-balance pass ran. A0=migrations so far.
	KindBalance
	// KindIdlePolicy: task moved into (A1=1) or out of (A1=0) SCHED_IDLE.
	// A0=task id.
	KindIdlePolicy
	// KindCapSample: vcap published a capacity sample for vCPU A0.
	// A1=published capacity (1024=nominal), A2=window share in 1/1024 units.
	KindCapSample
	// KindActSample: vact published activity for vCPU A0. A1=latency ns
	// (average inactive period), A2=average active period ns.
	KindActSample
	// KindBVSPlace: bvs hook decision for a task. A0=chosen vCPU (-1 = CFS
	// fallback), A1=candidates scanned, A2=bitmask of vCPUs (id<64) that
	// passed the capacity filter.
	KindBVSPlace
	// KindIVH: harvesting protocol step. A0=outcome (0=attempt, 1=migrated,
	// 2=abandoned), A1=src vCPU, A2=dst vCPU.
	KindIVH
	// KindVtop: topology prober finished a pass. A0=0 full probe / 1
	// validation, A1=duration ns, A2=1 when the belief was confirmed (full
	// probes always publish).
	KindVtop
	// KindVMArrive: a fleet VM arrival entered the placement pipeline.
	// A0=vCPUs requested.
	KindVMArrive
	// KindVMPlace: fleet placement decision. A0=chosen host (-1 = rejected),
	// A1=vCPUs, A2=committed vCPUs on the host after placement.
	KindVMPlace
	// KindVMMigrate: live migration between hosts. A0=src host, A1=dst host,
	// A2=vCPUs moved.
	KindVMMigrate
	// KindVMExit: fleet VM departed. A0=host, A1=vCPUs released.
	KindVMExit
	// KindVCPUSpeed: a vCPU's effective execution speed changed while
	// running (resume, SMT sibling activity, turbo). Subject=VM name,
	// A0=vCPU id, A1=speed in millionths of a cycle per nanosecond.
	KindVCPUSpeed
	// KindMigCost: a cross-vCPU task migration was charged a working-set
	// transfer cost, paid the next time the task runs. A0=task id,
	// A1=cost in cycles.
	KindMigCost
	// KindHostFault: a host fault began. Subject=host name, A0=fault kind
	// (faults.Kind), A1=duration ns, A2=brownout capacity factor in
	// millionths (0 for crash/stall).
	KindHostFault
	// KindHostRecover: a host fault cleared. Subject=host name, A0=fault
	// kind.
	KindHostRecover
	// KindVMCrash: a fleet VM was killed by a host crash. A0=host,
	// A1=vCPUs.
	KindVMCrash
	// KindVMRestart: a crashed VM was re-placed. A0=new host, A1=attempt
	// number, A2=downtime ns (time-to-recover).
	KindVMRestart
	// KindVMLost: a VM was terminally lost. A0=reason (0=retry budget
	// exhausted, 1=pending queue overflow, 2=recovery disabled), A1=vCPUs.
	KindVMLost

	// numKinds bounds per-kind arrays (Summary); keep it one past the last.
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindEntityState:
		return "entity-state"
	case KindPreempt:
		return "preempt"
	case KindThrottle:
		return "throttle"
	case KindUnthrottle:
		return "unthrottle"
	case KindSteal:
		return "steal"
	case KindTaskWakeup:
		return "task-wakeup"
	case KindTaskOn:
		return "task-on"
	case KindTaskOff:
		return "task-off"
	case KindTaskMigrate:
		return "task-migrate"
	case KindBalance:
		return "balance"
	case KindIdlePolicy:
		return "idle-policy"
	case KindCapSample:
		return "vcap-sample"
	case KindActSample:
		return "vact-sample"
	case KindBVSPlace:
		return "bvs-place"
	case KindIVH:
		return "ivh"
	case KindVtop:
		return "vtop"
	case KindVMArrive:
		return "vm-arrive"
	case KindVMPlace:
		return "vm-place"
	case KindVMMigrate:
		return "vm-migrate"
	case KindVMExit:
		return "vm-exit"
	case KindVCPUSpeed:
		return "vcpu-speed"
	case KindMigCost:
		return "mig-cost"
	case KindHostFault:
		return "host-fault"
	case KindHostRecover:
		return "host-recover"
	case KindVMCrash:
		return "vm-crash"
	case KindVMRestart:
		return "vm-restart"
	case KindVMLost:
		return "vm-lost"
	}
	return "invalid"
}

// Category returns the simulation layer the kind belongs to: "host",
// "guest", "vsched" or "fleet".
func (k Kind) Category() string {
	switch k {
	case KindEntityState, KindPreempt, KindThrottle, KindUnthrottle, KindSteal:
		return "host"
	case KindTaskWakeup, KindTaskOn, KindTaskOff, KindTaskMigrate, KindBalance, KindIdlePolicy,
		KindVCPUSpeed, KindMigCost:
		return "guest"
	case KindVMArrive, KindVMPlace, KindVMMigrate, KindVMExit,
		KindHostFault, KindHostRecover, KindVMCrash, KindVMRestart, KindVMLost:
		return "fleet"
	default:
		return "vsched"
	}
}

// Event is one trace record. Fixed size: the subject is an interned string
// the emitting layer already owns (entity/task name), and the payload is
// three int64 arguments whose meaning depends on Kind.
type Event struct {
	At         sim.Time
	Kind       Kind
	Subject    string
	A0, A1, A2 int64
}

// Tracer records events into a fixed-capacity ring buffer and/or streams
// them to an observer. The zero of everything is useful: a nil *Tracer is a
// disabled tracer whose emit methods are no-ops.
type Tracer struct {
	buf   []record
	next  int    // ring write index
	total uint64 // events emitted over the tracer's lifetime
	obs   func(Event)

	// subs is the ring's subject table: record.sub indexes it, and subIdx
	// maps each distinct non-empty subject back to its index. subs[0] is
	// "".
	subs   []string
	subIdx map[string]uint32
	// recent caches intern results by string data pointer, so the emits of
	// a subject the caller keeps reusing skip the map's hash. Only a ring
	// tracer (New) has one.
	recent *[internCache]internEntry
}

// record is the ring's storage form of an Event: the subject is an index
// into the tracer's subject table, so a record holds no pointers and the
// ring is an allocation the garbage collector never scans.
type record struct {
	at, a0, a1, a2 int64
	sub            uint32
	kind           Kind
}

// The intern cache has internCache = 1<<internBits slots (96 KiB). One
// tracer often serves a whole fleet: vbench's 16-host fleet-observed cell
// emits ~1,800 distinct subjects (VM names, vCPU entities, tasks, host
// contenders), on which 64 slots missed on 28-33% of emits and 4,096 miss
// on 0.3-2%.
const (
	internBits  = 12
	internCache = 1 << internBits
)

type internEntry struct {
	ptr *byte // string data; holding it keeps the bytes from being reused
	n   int
	idx uint32
}

// DefaultCapacity is a buffer big enough for several virtual seconds of a
// mid-sized VM (40 bytes/event => ~10.5 MB, allocated and zeroed by every
// New(0)). The ring holds no pointers, so the garbage collector does not
// scan it.
const DefaultCapacity = 1 << 18

// New returns a tracer with a preallocated ring of the given capacity
// (DefaultCapacity when <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		buf:    make([]record, 0, capacity),
		subs:   []string{""},
		subIdx: map[string]uint32{},
		recent: new([internCache]internEntry),
	}
}

// NewObserver returns a ring-less tracer that streams every emitted event to
// fn instead of buffering it. This is the live event-access path: a
// latency-attribution profiler (or any other consumer) sees each event the
// moment it is emitted, with no capacity limit and nothing ever dropped.
// Events() returns nil and Dropped() returns 0 for such a tracer.
func NewObserver(fn func(Event)) *Tracer {
	return &Tracer{obs: fn}
}

// SetObserver attaches fn as a streaming tap: every subsequent Emit calls fn
// with the event after (possibly) recording it in the ring. Pass nil to
// detach. The callback runs synchronously on the emit path, so it must be
// cheap and must not re-enter the emitting layer.
func (tr *Tracer) SetObserver(fn func(Event)) {
	if tr == nil {
		return
	}
	tr.obs = fn
}

// Emit records one event. Safe (and free) on a nil tracer: the nil check is
// the entire disabled fast path, and an enabled emit writes one fixed-size
// slot with no allocation once its subject has been seen.
func (tr *Tracer) Emit(at sim.Time, k Kind, subject string, a0, a1, a2 int64) {
	if tr == nil {
		return
	}
	if cap(tr.buf) > 0 {
		// Fibonacci hashing of the subject's data pointer picks its intern
		// cache slot. An empty slot (nil, 0) holds index 0, which is "", so
		// it is a correct hit for an empty subject.
		p := unsafe.StringData(subject)
		e := &tr.recent[uint64(uintptr(unsafe.Pointer(p)))*0x9E3779B97F4A7C15>>(64-internBits)]
		sub := e.idx
		if e.ptr != p || e.n != len(subject) {
			sub = tr.intern(subject, e)
		}
		r := record{at: int64(at), a0: a0, a1: a1, a2: a2, sub: sub, kind: k}
		if len(tr.buf) < cap(tr.buf) {
			tr.buf = append(tr.buf, r)
		} else {
			tr.buf[tr.next] = r
			tr.next++
			if tr.next == len(tr.buf) {
				tr.next = 0
			}
		}
	}
	tr.total++
	if tr.obs != nil {
		tr.obs(Event{At: at, Kind: k, Subject: subject, A0: a0, A1: a1, A2: a2})
	}
}

// intern looks s up in the subject table, adds it if new, and refills
// cache slot e with it. Emit checks the cache itself, so a hit costs no call.
//
//go:noinline
func (tr *Tracer) intern(s string, e *internEntry) uint32 {
	var idx uint32
	if len(s) > 0 {
		var ok bool
		if idx, ok = tr.subIdx[s]; !ok {
			idx = uint32(len(tr.subs))
			tr.subs = append(tr.subs, s)
			tr.subIdx[s] = idx
		}
	}
	*e = internEntry{ptr: unsafe.StringData(s), n: len(s), idx: idx}
	return idx
}

// Enabled reports whether the tracer records events.
func (tr *Tracer) Enabled() bool { return tr != nil }

// Total returns how many events were emitted over the tracer's lifetime,
// including ones the ring has since overwritten.
func (tr *Tracer) Total() uint64 {
	if tr == nil {
		return 0
	}
	return tr.total
}

// Dropped returns how many events the ring overwrote. An observer-only
// tracer (NewObserver) streams every event and never drops any.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil || cap(tr.buf) == 0 {
		return 0
	}
	return tr.total - uint64(len(tr.buf))
}

// Events returns the buffered events in chronological order. The returned
// slice is freshly allocated; the tracer may keep recording.
func (tr *Tracer) Events() []Event {
	if tr == nil || len(tr.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(tr.buf))
	for _, part := range [2][]record{tr.buf[tr.next:], tr.buf[:tr.next]} {
		for _, r := range part {
			out = append(out, Event{At: sim.Time(r.at), Kind: r.kind, Subject: tr.subs[r.sub],
				A0: r.a0, A1: r.a1, A2: r.a2})
		}
	}
	return out
}

// AttachHost taps every entity of h — including entities created after the
// call — emitting state-transition, preemption, throttle and steal-interval
// events. It appends to the host-wide observer hook, so several tracers may
// tap one host; to feed several consumers the same derived events once, tap
// with one tracer whose observer tees them.
func AttachHost(tr *Tracer, h *host.Host) {
	if tr == nil {
		return
	}
	// stealSince[e.Seq()] tracks when entity e last entered a steal state
	// (Runnable/Throttled), to size the KindSteal interval on exit; open is
	// false outside a stretch that began after the tap attached. Seq numbers
	// a host's entities densely, so the slice grows only when the host
	// creates one and the steady-state observer path allocates nothing.
	var stealSince []stealMark
	h.AddObserver(func(e *host.Entity, now sim.Time, from, to host.EntityState) {
		name := e.Name()
		tr.Emit(now, KindEntityState, name, int64(from), int64(to), int64(e.Thread().ID()))
		if from == host.Running && (to == host.Runnable || to == host.Throttled) {
			tr.Emit(now, KindPreempt, name, int64(to), 0, 0)
		}
		if to == host.Throttled {
			tr.Emit(now, KindThrottle, name, 0, 0, 0)
		}
		if from == host.Throttled && to == host.Runnable {
			// The quota-refill path re-admits the entity to its runqueue.
			tr.Emit(now, KindUnthrottle, name, 0, 0, 0)
		}
		fromSteal := from == host.Runnable || from == host.Throttled
		toSteal := to == host.Runnable || to == host.Throttled
		if fromSteal == toSteal {
			return
		}
		i := e.Seq()
		for uint64(len(stealSince)) <= i {
			stealSince = append(stealSince, stealMark{})
		}
		m := &stealSince[i]
		switch {
		case toSteal:
			*m = stealMark{since: now, open: true}
		case m.open:
			tr.Emit(now, KindSteal, name, int64(now.Sub(m.since)), 0, 0)
			m.open = false
		}
	})
}

// stealMark is one entity's steal stretch in AttachHost.
type stealMark struct {
	since sim.Time
	open  bool
}
