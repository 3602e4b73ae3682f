package latprof

import (
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// HostFold is the host-side half of attribution, shared by every profiler of
// a VM born on one host: it folds each host entity event once into a view —
// every entity's last home thread, every thread's Running occupant — and
// hands the event only to the profilers with a stake in it. A profiler has a
// stake when it owns the event's entity (one of its vCPUs), when one of its
// vCPUs is homed on the event's new thread, or when one is homed on the old
// thread and it has seen the entity since attaching.
//
// Every view entry carries the sequence number of the host event that last
// wrote it, and a profiler counts an entry as seen only if it was written
// after the profiler attached. That reproduces exactly the view a private
// copy fed from the attach point on would hold, so a profile does not
// depend on whether its fold is shared.
//
// Feed a HostFold the host's events (vtrace.AttachHost on an observer
// tracer calling Observe) and each attached profiler its own VM's guest
// events. The zero HostFold is not usable; call NewHostFold.
type HostFold struct {
	// seq counts host events folded so far and stamps view writes.
	seq    uint64
	lastAt sim.Time

	ents    map[string]*hostEntity
	all     []*hostEntity // creation order
	threads map[int64]*hwThread
	profs   []*Profiler // attach order
}

// hostEntity is the view of one host entity, keyed by name.
type hostEntity struct {
	name string
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
	// homed counts, per profiler, its vCPUs homed on this thread: the
	// profilers an event on the thread is dispatched to.
	homed []homing
}

type homing struct {
	p *Profiler
	n int
}

// NewHostFold returns an empty host view.
func NewHostFold() *HostFold {
	return &HostFold{ents: map[string]*hostEntity{}, threads: map[int64]*hwThread{}}
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
		tasks:     map[int64]*taskState{},
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

func (f *HostFold) entity(name string) *hostEntity {
	if e := f.ents[name]; e != nil {
		return e
	}
	e := &hostEntity{name: name}
	f.ents[name] = e
	f.all = append(f.all, e)
	for _, p := range f.profs {
		e.claim(p)
	}
	return e
}

func (f *HostFold) thread(id int64) *hwThread {
	if t := f.threads[id]; t != nil {
		return t
	}
	t := &hwThread{id: id}
	f.threads[id] = t
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
	for _, h := range newT.homed {
		h.p.flushThread(ev.At, newT)
	}
	if oldT != nil && oldT != newT {
		for _, h := range oldT.homed {
			if e.seq > h.p.attachSeq {
				h.p.flushThread(ev.At, oldT)
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

// home and unhome count one of p's vCPUs onto and off the thread.
func (t *hwThread) home(p *Profiler) {
	for i := range t.homed {
		if t.homed[i].p == p {
			t.homed[i].n++
			return
		}
	}
	t.homed = append(t.homed, homing{p: p, n: 1})
}

func (t *hwThread) unhome(p *Profiler) {
	for i := range t.homed {
		if t.homed[i].p != p {
			continue
		}
		if t.homed[i].n--; t.homed[i].n == 0 {
			last := len(t.homed) - 1
			t.homed[i] = t.homed[last]
			t.homed = t.homed[:last]
		}
		return
	}
}
