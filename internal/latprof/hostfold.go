package latprof

import (
	"unsafe"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// HostFold is the host-side half of attribution, shared by every profiler of
// a VM born on one host: it folds each host entity event once into a view —
// every entity's last home thread, every thread's Running occupant — and
// hands the event only to the profilers with a stake in it. A profiler has a
// stake when it owns the event's entity (one of its vCPUs), when it has an
// open span on a vCPU homed on the event's new thread, or when it has one on
// a vCPU homed on the old thread and it has seen the entity since attaching.
// Each thread counts its stakeholders' open spans, so an event never visits
// a profiler it cannot change — the many of departed VMs included.
//
// Every view entry carries the sequence number of the host event that last
// wrote it, and a profiler counts an entry as seen only if it was written
// after the profiler attached. That reproduces exactly the view a private
// copy fed from the attach point on would hold, so a profile does not
// depend on whether its fold is shared.
//
// Feed a HostFold the host's events (vtrace.AttachHost on an observer
// tracer calling Observe, or teeing them to a ring tracer first, as a fleet
// with both a tracer and attribution does) and each attached profiler its
// own VM's guest events. The zero HostFold is not usable; call NewHostFold.
type HostFold struct {
	// seq counts host events folded so far and stamps view writes.
	seq    uint64
	lastAt sim.Time

	ents map[string]*hostEntity
	// recent caches ents lookups by the name's data pointer, as
	// vtrace.Tracer.Emit caches its interning: a host tap passes each
	// entity's own name string, so its events skip the map's hash.
	recent [entCache]entEntry
	all    []*hostEntity // creation order
	// names interns the blamed entities' names for closed spans' steal
	// blame: unknownEnt and hostEnt, then every other entity's in creation
	// order. Profiles share it; it only grows.
	names []string
	// threads indexes the view's threads by id; ids outside
	// [0, maxThreadID) live in far.
	threads []*hwThread
	far     map[int64]*hwThread
	profs   []*Profiler // attach order

	// scan, when set, is handed to every profiler attached afterwards:
	// tests use it to check the per-vCPU open-span index against a scan of
	// every open span.
	scan flusher
}

// flusher settles a profiler's open spans on one hardware thread or vCPU.
type flusher interface {
	flushThread(p *Profiler, at sim.Time, t *hwThread)
	flushVCPU(p *Profiler, at sim.Time, idx int)
}

// The name cache has entCache = 1<<entBits slots; a host's live entities —
// its VMs' vCPUs and its contenders — are a few dozen.
const (
	entBits  = 7
	entCache = 1 << entBits
)

type entEntry struct {
	ptr *byte // name data; holding it keeps the bytes from being reused
	n   int
	e   *hostEntity
}

// maxThreadID bounds the thread ids the dense table holds, so a malformed
// stream cannot size it.
const maxThreadID = 1 << 16

// Steal blame that names no entity of the view goes to one of two fixed
// names, entries 0 and 1 of HostFold.names.
const (
	unknownEnt uint32 = iota // the holder was not visible in the stream
	hostEnt                  // an installed task on a halted vCPU
)

// hostEntity is the view of one host entity, keyed by name.
type hostEntity struct {
	name string
	// ent indexes name in HostFold.names.
	ent uint32
	// thread is the home thread at the entity's last event, written by
	// event seq; nil before its first event.
	thread *hwThread
	seq    uint64
	// owners are the attached profilers whose VM the entity is a vCPU of,
	// vcpu its index there. Distinct VM names never share an entity, but
	// two incarnations of one name on a host do.
	owners []*Profiler
	vcpu   int
}

// hwThread is the view of one hardware thread.
type hwThread struct {
	id int64
	// runner is the entity Running on the thread (nil when none), set by
	// event runnerSeq.
	runner    *hostEntity
	runnerSeq uint64
	// stakes counts, per profiler, its open spans on vCPUs homed on this
	// thread: the profilers an event on the thread is dispatched to.
	stakes []stakeholder
}

type stakeholder struct {
	p *Profiler
	n int
}

// NewHostFold returns an empty host view.
func NewHostFold() *HostFold {
	return &HostFold{ents: map[string]*hostEntity{}, names: []string{"(unknown)", "(host)"}}
}

// Attach returns a profiler for one VM that reads this fold's view. The
// profiler sees host events from this point on, exactly as a private New
// profiler fed only the events after it would.
func (f *HostFold) Attach(cfg Config) *Profiler {
	p := &Profiler{
		cfg:       cfg,
		vmPrefix:  cfg.VM + "/vcpu",
		fold:      f,
		attachSeq: f.seq,
		scan:      f.scan,
	}
	f.profs = append(f.profs, p)
	for _, e := range f.all {
		e.claim(p)
	}
	return p
}

// claim records p as an owner of e when e is one of p's vCPUs.
func (e *hostEntity) claim(p *Profiler) {
	if idx, ok := p.vcpuIndex(e.name); ok {
		e.owners = append(e.owners, p)
		e.vcpu = idx
	}
}

// entity returns the view of the named entity, creating it on first sight.
// Fibonacci hashing of the name's data pointer picks its cache slot.
func (f *HostFold) entity(name string) *hostEntity {
	ptr := unsafe.StringData(name)
	c := &f.recent[uint64(uintptr(unsafe.Pointer(ptr)))*0x9E3779B97F4A7C15>>(64-entBits)]
	if c.ptr == ptr && c.n == len(name) && c.e != nil {
		return c.e
	}
	e := f.ents[name]
	if e == nil {
		e = &hostEntity{name: name, ent: f.nameEnt(name)}
		f.ents[name] = e
		f.all = append(f.all, e)
		for _, p := range f.profs {
			e.claim(p)
		}
	}
	*c = entEntry{ptr: ptr, n: len(name), e: e}
	return e
}

// nameEnt interns a new entity's name; an entity named like one of the
// fixed names shares its entry, so blame stays keyed by name.
func (f *HostFold) nameEnt(name string) uint32 {
	for k, n := range f.names[:hostEnt+1] {
		if n == name {
			return uint32(k)
		}
	}
	f.names = append(f.names, name)
	return uint32(len(f.names) - 1)
}

func (f *HostFold) thread(id int64) *hwThread {
	if id < 0 || id >= maxThreadID {
		if t := f.far[id]; t != nil {
			return t
		}
		if f.far == nil {
			f.far = map[int64]*hwThread{}
		}
		t := &hwThread{id: id}
		f.far[id] = t
		return t
	}
	for int64(len(f.threads)) <= id {
		f.threads = append(f.threads, nil)
	}
	t := f.threads[id]
	if t == nil {
		t = &hwThread{id: id}
		f.threads[id] = t
	}
	return t
}

// Observe folds one host event. Events must arrive in non-decreasing time
// order; kinds other than entity state only advance the fold's clock.
func (f *HostFold) Observe(ev vtrace.Event) {
	f.seq++
	if ev.At > f.lastAt {
		f.lastAt = ev.At
	}
	if ev.Kind != vtrace.KindEntityState {
		return
	}
	e := f.entity(ev.Subject)
	to := host.EntityState(ev.A1)
	oldT, newT := e.thread, e.thread
	if newT == nil || newT.id != ev.A2 {
		newT = f.thread(ev.A2)
	}

	// Any transition can change a thread's runner, which changes blame for
	// every task stalled behind that thread: every stakeholder settles its
	// clocks against the old view before the event is committed to it.
	// A profiler with no open span on a thread has nothing there to
	// settle, so only the thread's stakes are visited.
	if f.scan != nil {
		f.scanThreads(ev.At, e, oldT, newT)
	} else {
		for _, st := range newT.stakes {
			st.p.flushThread(ev.At, newT)
		}
		if oldT != nil && oldT != newT {
			for _, st := range oldT.stakes {
				if e.seq > st.p.attachSeq {
					st.p.flushThread(ev.At, oldT)
				}
			}
		}
	}
	for _, p := range e.owners {
		p.vcpuEntity(ev.At, e.vcpu, to, newT)
	}

	if oldT != nil && oldT.runner == e {
		oldT.runner = nil
	}
	if to == host.Running {
		newT.runner, newT.runnerSeq = e, f.seq
	} else if newT.runner == e {
		newT.runner = nil
	}
	e.thread, e.seq = newT, f.seq
}

// scanThreads is Observe's thread settling with the reference flusher: it
// offers the event's threads to every attached profiler, as the reference
// cannot trust the stakes it checks.
func (f *HostFold) scanThreads(at sim.Time, e *hostEntity, oldT, newT *hwThread) {
	for _, p := range f.profs {
		f.scan.flushThread(p, at, newT)
		if oldT != nil && oldT != newT && e.seq > p.attachSeq {
			f.scan.flushThread(p, at, oldT)
		}
	}
}

// stake adds d to p's count of open spans on the thread, dropping p from
// the thread's stakes when the count reaches zero.
func (t *hwThread) stake(p *Profiler, d int) {
	for i := range t.stakes {
		if t.stakes[i].p != p {
			continue
		}
		if t.stakes[i].n += d; t.stakes[i].n == 0 {
			last := len(t.stakes) - 1
			t.stakes[i] = t.stakes[last]
			t.stakes = t.stakes[:last]
		}
		return
	}
	t.stakes = append(t.stakes, stakeholder{p: p, n: d})
}
