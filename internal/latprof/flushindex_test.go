package latprof

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// scanFlush is the reference for the per-vCPU open-span index: the flushes
// as they were before it, scanning every open span of the profiler.
type scanFlush struct{}

func (scanFlush) flushThread(p *Profiler, at sim.Time, t *hwThread) {
	for _, ts := range p.open {
		if p.homeOf(ts.vcpu) == t {
			p.flushTask(ts, at)
		}
	}
}

func (scanFlush) flushVCPU(p *Profiler, at sim.Time, idx int) {
	for _, ts := range p.open {
		if ts.vcpu == idx {
			p.flushTask(ts, at)
		}
	}
}

// indexExact checks the open-span index of every profiler on f against
// the spans themselves: each vCPU lists exactly the open spans on it, and
// each thread's stakes count exactly each profiler's open spans on vCPUs
// homed there. Over-counted stakes would not change a result, only visit
// profilers for nothing, so only this check catches them.
func indexExact(f *HostFold) error {
	threads := slices.Clone(f.threads)
	for _, t := range f.far {
		threads = append(threads, t)
	}
	want := map[*hwThread]map[*Profiler]int{}
	for _, p := range f.profs {
		for i := range p.vcpus {
			vs := &p.vcpus[i]
			n := 0
			for ts := vs.open; ts != nil; ts = ts.next {
				if ts.vcpu != i || p.task(ts.id) != ts {
					return fmt.Errorf("%s: vCPU %d lists task %d on vCPU %d", p.cfg.VM, i, ts.id, ts.vcpu)
				}
				n++
			}
			if n != vs.nopen {
				return fmt.Errorf("%s: vCPU %d lists %d spans, counts %d", p.cfg.VM, i, n, vs.nopen)
			}
			if n > 0 && vs.thread != nil {
				if want[vs.thread] == nil {
					want[vs.thread] = map[*Profiler]int{}
				}
				want[vs.thread][p] += n
			}
		}
		listed := 0
		for _, ts := range p.open {
			if ts.vcpu >= 0 && ts.vcpu < maxVCPUs {
				listed++
			}
		}
		total := 0
		for i := range p.vcpus {
			total += p.vcpus[i].nopen
		}
		if total != listed {
			return fmt.Errorf("%s: vCPU lists hold %d spans, %d open spans have a listable vCPU", p.cfg.VM, total, listed)
		}
	}
	for _, t := range threads {
		if t == nil {
			continue
		}
		got := map[*Profiler]int{}
		for _, st := range t.stakes {
			if _, dup := got[st.p]; dup || st.n <= 0 {
				return fmt.Errorf("thread %d: stake %+v duplicated or not positive", t.id, st)
			}
			got[st.p] = st.n
		}
		if !maps.Equal(got, want[t]) {
			return fmt.Errorf("thread %d: stakes %v, open spans %v", t.id, got, want[t])
		}
	}
	return nil
}

// foldShared folds s through one shared HostFold, attaching VM i's profiler
// just before event attach[i] and settling every profiler each settleEvery
// events, and returns a view of each VM's profile at the end. A non-nil scan replaces
// the fold's open-span index; a nil one has the index checked after every
// event.
func foldShared(t *testing.T, s *stream, attach []int, nominal float64, scan flusher) []profileView {
	t.Helper()
	fold := NewHostFold()
	fold.scan = scan
	ps := make([]*Profiler, len(s.vms))
	for k, e := range s.evs {
		for i, a := range attach {
			if a == k {
				ps[i] = fold.Attach(Config{VM: s.vms[i], NominalSpeed: nominal})
			}
		}
		if e.vm < 0 {
			fold.Observe(e.ev)
		} else if p := ps[e.vm]; p != nil {
			p.Observe(e.ev)
		}
		if k%settleEvery == 0 {
			for _, p := range ps {
				if p != nil {
					p.Finish(0)
				}
			}
		}
		if scan == nil {
			if err := indexExact(fold); err != nil {
				t.Fatalf("after event %d (%+v): %v", k, e.ev, err)
			}
		}
	}
	end := s.evs[len(s.evs)-1].ev.At
	out := make([]profileView, len(ps))
	for i, p := range ps {
		out[i] = viewOf(p.Finish(end))
	}
	return out
}

// TestFlushIndexMatchesScan: settling a thread or a vCPU through the
// per-vCPU open-span index gives every profile a scan of all open spans
// gives, on random multi-VM streams through a shared fold. The streams move
// tasks across vCPUs and vCPUs across threads, and name vCPU indexes and
// thread ids outside the dense tables.
func TestFlushIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			s, attach := flushStream(seed, 1500)
			got := foldShared(t, s, attach, 2.0, nil)
			want := foldShared(t, s, attach, 2.0, scanFlush{})
			spans := 0
			for i := range s.vms {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("VM %d (%s): indexed flush differs from the scan\nindexed: %+v\nscan:    %+v",
						i, s.vms[i], got[i], want[i])
				}
				spans += len(got[i].Spans)
			}
			if spans == 0 {
				t.Fatal("no span closed; the stream exercises nothing")
			}
		})
	}
	// The older streams of TestHostFoldMatchesPrivate too.
	for seed := int64(1); seed <= 10; seed++ {
		s, attach := randomStream(seed, 600)
		if got, want := foldShared(t, s, attach, 2.0, nil), foldShared(t, s, attach, 2.0, scanFlush{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("randomStream(%d): indexed flush differs from the scan", seed)
		}
	}
}

// flushStream scripts n events over six threads for three VMs of four vCPUs
// (the third a restart that appears midway) and two contenders. Tasks wake,
// run, block and migrate on vCPUs 0-3, now and then on an index no entity
// names (-1, 6) or one past the profiler's bound; entities now and then move
// to a thread id outside the fold's dense table.
func flushStream(seed int64, n int) (*stream, []int) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{vms: []string{"a", "b", "a-r1"}}
	type ent struct {
		name   string
		state  host.EntityState
		thread int64
	}
	thread := func() int64 {
		switch rng.Intn(20) {
		case 0:
			return -1
		case 1:
			return maxThreadID + 3
		}
		return rng.Int63n(6)
	}
	var ents []*ent
	for _, vm := range s.vms[:2] {
		for i := 0; i < 4; i++ {
			ents = append(ents, &ent{name: fmt.Sprintf("%s/vcpu%d", vm, i), state: host.Blocked, thread: thread()})
		}
	}
	ents = append(ents, &ent{name: "t0", state: host.Blocked, thread: 0}, &ent{name: "t1", state: host.Blocked, thread: 3})
	vcpu := func() int64 {
		switch rng.Intn(30) {
		case 0:
			return -1
		case 1:
			return 6
		case 2:
			return maxVCPUs
		}
		return rng.Int63n(4)
	}
	born := n / 2
	now := sim.Time(0)
	nextID := [3]int64{1, 1, 1}
	for len(s.evs) < n {
		now += sim.Time(1 + rng.Intn(300000))
		if len(s.evs) == born {
			for i := 0; i < 4; i++ {
				ents = append(ents, &ent{name: fmt.Sprintf("a-r1/vcpu%d", i), state: host.Blocked, thread: thread()})
			}
		}
		if rng.Intn(5) < 2 {
			e := ents[rng.Intn(len(ents))]
			to := host.EntityState(rng.Intn(4))
			if rng.Intn(5) == 0 {
				e.thread = thread()
			}
			s.ent(now, e.name, e.state, to, e.thread)
			e.state = to
			continue
		}
		vm := rng.Intn(2)
		if len(s.evs) > born {
			vm = rng.Intn(3)
		}
		id := 1 + rng.Int63n(nextID[vm])
		var ev vtrace.Event
		switch rng.Intn(7) {
		case 0, 1:
			ev = vtrace.Event{Kind: vtrace.KindTaskWakeup, Subject: "w", A0: nextID[vm], A1: vcpu(), A2: rng.Int63n(3) - 1}
			nextID[vm]++
		case 2:
			ev = vtrace.Event{Kind: vtrace.KindTaskOn, Subject: "w", A0: vcpu(), A1: id}
		case 3:
			ev = vtrace.Event{Kind: vtrace.KindTaskOff, Subject: "w", A0: vcpu(), A1: id, A2: rng.Int63n(2)}
		case 4:
			ev = vtrace.Event{Kind: vtrace.KindTaskMigrate, Subject: "w", A0: id, A1: vcpu(), A2: vcpu()}
		case 5:
			ev = vtrace.Event{Kind: vtrace.KindVCPUSpeed, Subject: s.vms[vm], A0: vcpu(), A1: 3e5 + rng.Int63n(2e6)}
		default:
			ev = vtrace.Event{Kind: vtrace.KindMigCost, Subject: "w", A0: id, A1: rng.Int63n(5e5)}
		}
		ev.At = now
		s.guest(vm, ev)
	}
	attach := []int{rng.Intn(n / 4), rng.Intn(n / 2), born + rng.Intn(n/4)}
	return s, attach
}

// TestFlushIndexAllocBudget: moving open spans between vCPUs and vCPUs
// between threads — by id inside and outside the fold's dense thread table —
// allocates nothing once warm, and neither do the flushes the moves cause.
func TestFlushIndexAllocBudget(t *testing.T) {
	fold := NewHostFold()
	p := fold.Attach(Config{VM: "vm", NominalSpeed: 2.0})
	now := sim.Time(0)
	ent := func(name string, from, to host.EntityState, thread int64) {
		fold.Observe(vtrace.Event{At: now, Kind: vtrace.KindEntityState, Subject: name,
			A0: int64(from), A1: int64(to), A2: thread})
	}
	guest := func(k vtrace.Kind, a0, a1, a2 int64) {
		p.Observe(vtrace.Event{At: now, Kind: k, Subject: "w", A0: a0, A1: a1, A2: a2})
	}
	ent("vm/vcpu0", host.Blocked, host.Running, 0)
	ent("vm/vcpu1", host.Blocked, host.Running, 1)
	cycle := func() {
		now += sim.Time(ms)
		guest(vtrace.KindTaskWakeup, 1, 0, -1)
		guest(vtrace.KindTaskWakeup, 2, 1, -1)
		guest(vtrace.KindTaskOn, 0, 1, 0)
		now += sim.Time(ms)
		ent("vm/vcpu1", host.Running, host.Runnable, maxThreadID+1)
		ent("tenant", host.Runnable, host.Running, maxThreadID+1)
		guest(vtrace.KindTaskMigrate, 2, 1, 0)
		guest(vtrace.KindTaskMigrate, 1, 0, 1)
		now += sim.Time(ms)
		ent("tenant", host.Running, host.Runnable, maxThreadID+1)
		ent("vm/vcpu1", host.Runnable, host.Running, 1)
		guest(vtrace.KindTaskOn, 1, 1, 0)
		now += sim.Time(ms)
		guest(vtrace.KindTaskOff, 1, 1, 0)
		guest(vtrace.KindTaskOn, 0, 2, 0)
		guest(vtrace.KindTaskOff, 0, 2, 0)
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("span moves allocate %v times per cycle, want 0", n)
	}
	if got := p.Finish(now).Len(); got != 2*1002 {
		t.Fatalf("spans = %d, want %d", got, 2*1002)
	}
}
