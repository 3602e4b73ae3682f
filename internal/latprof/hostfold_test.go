package latprof

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// stream is a scripted host event stream interleaved with the guest events
// of several VMs: vm is -1 for a host event, else the index of the VM whose
// guest emitted it.
type stream struct {
	evs []tagged
	vms []string
}

type tagged struct {
	ev vtrace.Event
	vm int
}

func (s *stream) ent(at sim.Time, name string, from, to host.EntityState, thread int64) {
	s.evs = append(s.evs, tagged{vm: -1, ev: vtrace.Event{At: at, Kind: vtrace.KindEntityState,
		Subject: name, A0: int64(from), A1: int64(to), A2: thread}})
}

func (s *stream) guest(vm int, ev vtrace.Event) {
	s.evs = append(s.evs, tagged{vm: vm, ev: ev})
}

// shareAndCompare folds s once through a shared HostFold, attaching VM i's
// profiler just before event attach[i], and compares each profile with a
// private New profiler fed only the suffix from that attach point: host
// events plus VM i's own guest events. Both also Finish every settleEvery
// events mid-stream, which settles open spans at the last event each counts
// as observed. It returns the shared profiles.
func shareAndCompare(t *testing.T, s *stream, attach []int, nominal float64) []*Profile {
	t.Helper()
	fold := NewHostFold()
	shared := make([]*Profiler, len(s.vms))
	for k, e := range s.evs {
		for i, a := range attach {
			if a == k {
				shared[i] = fold.Attach(Config{VM: s.vms[i], NominalSpeed: nominal})
			}
		}
		if e.vm < 0 {
			fold.Observe(e.ev)
		} else if p := shared[e.vm]; p != nil {
			p.Observe(e.ev)
		}
		if k%settleEvery == 0 {
			for _, p := range shared {
				if p != nil {
					p.Finish(0)
				}
			}
		}
	}
	end := s.evs[len(s.evs)-1].ev.At
	out := make([]*Profile, len(s.vms))
	for i := range s.vms {
		priv := New(Config{VM: s.vms[i], NominalSpeed: nominal})
		for k := attach[i]; k < len(s.evs); k++ {
			if e := s.evs[k]; e.vm < 0 || e.vm == i {
				priv.Observe(e.ev)
			}
			if k%settleEvery == 0 {
				priv.Finish(0)
			}
		}
		got, want := shared[i].Finish(end), priv.Finish(end)
		if !reflect.DeepEqual(viewOf(got), viewOf(want)) {
			t.Fatalf("VM %d (%s) attached at %d: shared fold profile differs from private\nshared:  %+v\nprivate: %+v",
				i, s.vms[i], attach[i], viewOf(got), viewOf(want))
		}
		out[i] = got
	}
	return out
}

const settleEvery = 37

func blamed(p *Profile, entity string) sim.Duration {
	var d sim.Duration
	for _, s := range spansOf(p) {
		for _, b := range s.StealBy {
			if b.Entity == entity {
				d += b.Wait
			}
		}
	}
	return d
}

// TestHostFoldMatchesPrivate: a profiler on a shared host fold reconstructs
// exactly what a private profiler fed from its attach point on does — on
// scripted corner cases and on random streams with late attachers.
func TestHostFoldMatchesPrivate(t *testing.T) {
	// A runner that took thread 0 before "vm" attached keeps "(unknown)"
	// blame until it is seen again; after it re-takes the thread it is named.
	t.Run("runner-predates-attach", func(t *testing.T) {
		s := &stream{vms: []string{"vm"}}
		s.ent(0, "tenant", host.Runnable, host.Running, 0)
		s.ent(0, "vm/vcpu0", host.Blocked, host.Runnable, 0)
		s.ent(at(1), "vm/vcpu0", host.Runnable, host.Runnable, 0)
		s.guest(0, vtrace.Event{At: at(1), Kind: vtrace.KindTaskWakeup, Subject: "a", A0: 1, A1: 0, A2: -1})
		s.ent(at(5), "tenant", host.Running, host.Runnable, 0)
		s.ent(at(5), "tenant", host.Runnable, host.Running, 0)
		s.guest(0, vtrace.Event{At: at(8), Kind: vtrace.KindTaskOn, Subject: "a", A0: 0, A1: 1})
		s.guest(0, vtrace.Event{At: at(9), Kind: vtrace.KindTaskOff, Subject: "a", A0: 0, A1: 1})
		p := shareAndCompare(t, s, []int{2}, 2.0)[0]
		if got := blamed(p, "(unknown)"); got != 4*ms {
			t.Errorf("(unknown) blame = %v, want 4ms", got)
		}
		if got := blamed(p, "tenant"); got != 4*ms {
			t.Errorf("tenant blame = %v, want 4ms", got)
		}
	})

	// "other" attaches after vm/vcpu1 was last seen on thread 2, where
	// other's vCPU runs at a third of nominal speed. When vm/vcpu1 leaves
	// thread 2, other has never seen it and must not settle thread 2: the
	// split would round the smt-slowdown share differently.
	t.Run("old-thread-seen-before-attach", func(t *testing.T) {
		s := &stream{vms: []string{"vm", "other"}}
		s.ent(0, "vm/vcpu1", host.Blocked, host.Runnable, 2)
		s.ent(0, "other/vcpu0", host.Blocked, host.Running, 2)
		s.guest(1, vtrace.Event{At: 0, Kind: vtrace.KindVCPUSpeed, Subject: "other", A0: 0, A1: 666666})
		s.guest(1, vtrace.Event{At: 0, Kind: vtrace.KindTaskWakeup, Subject: "b", A0: 1, A1: 0, A2: -1})
		s.guest(1, vtrace.Event{At: 0, Kind: vtrace.KindTaskOn, Subject: "b", A0: 0, A1: 1})
		s.ent(1000001, "vm/vcpu1", host.Runnable, host.Running, 3)
		s.guest(1, vtrace.Event{At: 2000002, Kind: vtrace.KindTaskOff, Subject: "b", A0: 0, A1: 1})
		p := shareAndCompare(t, s, []int{0, 1}, 2.0)[1]
		if p.Len() != 1 || p.Span(0).NS[SMTSlowdown] != 1333335 {
			t.Fatalf("spans %+v, want one span with 1333335ns smt-slowdown (unsplit)", spansOf(p))
		}
	})

	// Two VMs' vCPUs share thread 1; each is settled by the other's
	// transitions and blames the other by name.
	t.Run("shared-thread", func(t *testing.T) {
		s := &stream{vms: []string{"a", "b"}}
		s.ent(0, "a/vcpu0", host.Blocked, host.Running, 1)
		s.ent(0, "b/vcpu0", host.Blocked, host.Runnable, 1)
		for i, vm := range []int{0, 1} {
			s.guest(vm, vtrace.Event{At: 0, Kind: vtrace.KindTaskWakeup, Subject: "w", A0: int64(i), A1: 0, A2: -1})
			s.guest(vm, vtrace.Event{At: 0, Kind: vtrace.KindTaskOn, Subject: "w", A0: 0, A1: int64(i)})
		}
		s.ent(at(4), "a/vcpu0", host.Running, host.Runnable, 1)
		s.ent(at(4), "b/vcpu0", host.Runnable, host.Running, 1)
		s.ent(at(7), "b/vcpu0", host.Running, host.Runnable, 1)
		s.ent(at(7), "a/vcpu0", host.Runnable, host.Running, 1)
		for i, vm := range []int{0, 1} {
			s.guest(vm, vtrace.Event{At: at(10), Kind: vtrace.KindTaskOff, Subject: "w", A0: 0, A1: int64(i)})
		}
		ps := shareAndCompare(t, s, []int{0, 0}, 2.0)
		if got := blamed(ps[0], "b/vcpu0"); got != 3*ms {
			t.Errorf("a blames b/vcpu0 for %v, want 3ms", got)
		}
		if got := blamed(ps[1], "a/vcpu0"); got != 7*ms {
			t.Errorf("b blames a/vcpu0 for %v, want 7ms", got)
		}
	})

	// A crashed VM restarts on the same host as "vm-r1", twice: the first
	// incarnation's profiler never claims the -r1 vCPUs, and both -r1
	// profilers claim both -r1 incarnations' vCPUs, as private ones would.
	t.Run("restart", func(t *testing.T) {
		s := &stream{vms: []string{"vm", "vm-r1", "vm-r1"}}
		s.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
		s.guest(0, vtrace.Event{At: 0, Kind: vtrace.KindTaskWakeup, Subject: "x", A0: 1, A1: 0, A2: -1})
		s.guest(0, vtrace.Event{At: 0, Kind: vtrace.KindTaskOn, Subject: "x", A0: 0, A1: 1})
		s.ent(at(3), "vm/vcpu0", host.Running, host.Blocked, 0)
		r1 := len(s.evs)
		s.ent(at(4), "vm-r1/vcpu0", host.Blocked, host.Running, 0)
		s.guest(1, vtrace.Event{At: at(4), Kind: vtrace.KindTaskWakeup, Subject: "y", A0: 1, A1: 0, A2: -1})
		s.guest(1, vtrace.Event{At: at(4), Kind: vtrace.KindTaskOn, Subject: "y", A0: 0, A1: 1})
		s.ent(at(6), "vm-r1/vcpu0", host.Running, host.Runnable, 0)
		s.ent(at(6), "vm/vcpu0", host.Blocked, host.Running, 0)
		s.ent(at(8), "vm-r1/vcpu0", host.Runnable, host.Blocked, 0)
		r2 := len(s.evs)
		s.ent(at(9), "vm-r1/vcpu0", host.Blocked, host.Running, 1)
		s.guest(2, vtrace.Event{At: at(9), Kind: vtrace.KindTaskWakeup, Subject: "z", A0: 1, A1: 0, A2: -1})
		s.guest(2, vtrace.Event{At: at(9), Kind: vtrace.KindTaskOn, Subject: "z", A0: 0, A1: 1})
		s.guest(2, vtrace.Event{At: at(12), Kind: vtrace.KindTaskOff, Subject: "z", A0: 0, A1: 1})
		ps := shareAndCompare(t, s, []int{0, r1, r2}, 2.0)
		if ps[0].Open != 1 || ps[1].Open != 1 || ps[2].Len() != 1 {
			t.Fatalf("open %d/%d spans %d, want the two dead incarnations open and one closed span",
				ps[0].Open, ps[1].Open, ps[2].Len())
		}
	})

	// Random streams: physically inconsistent on purpose, since the shared
	// and the private fold must agree on any input.
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			s, attach := randomStream(seed, 600)
			shareAndCompare(t, s, attach, 2.0)
		})
	}
}

// randomStream scripts n events over four threads: vCPU transitions of
// three VMs (one a restart that shows up midway), two contenders, and each
// VM's task wakeups, runs, blocks, migrations, speed changes and migration
// costs, at odd nanosecond steps. VMs attach at random offsets.
func randomStream(seed int64, n int) (*stream, []int) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{vms: []string{"a", "b", "a-r1"}}
	type ent struct {
		name   string
		state  host.EntityState
		thread int64
	}
	var ents []*ent
	for _, name := range []string{"a/vcpu0", "a/vcpu1", "b/vcpu0", "b/vcpu1", "t0", "t1"} {
		ents = append(ents, &ent{name: name, state: host.Blocked, thread: rng.Int63n(4)})
	}
	born := n / 2
	now := sim.Time(0)
	nextID := int64(1)
	for len(s.evs) < n {
		now += sim.Time(1 + rng.Intn(400000))
		if len(s.evs) == born {
			ents = append(ents, &ent{name: "a-r1/vcpu0", state: host.Blocked, thread: rng.Int63n(4)})
		}
		if rng.Intn(2) == 0 {
			e := ents[rng.Intn(len(ents))]
			to := host.EntityState(rng.Intn(4))
			if rng.Intn(6) == 0 {
				e.thread = rng.Int63n(4)
			}
			s.ent(now, e.name, e.state, to, e.thread)
			e.state = to
			continue
		}
		vm := rng.Intn(2)
		if len(s.evs) > born {
			vm = rng.Intn(3)
		}
		vcpu := int64(rng.Intn(2))
		id := 1 + rng.Int63n(nextID)
		var ev vtrace.Event
		switch rng.Intn(6) {
		case 0:
			ev = vtrace.Event{Kind: vtrace.KindTaskWakeup, Subject: "w", A0: nextID, A1: vcpu, A2: rng.Int63n(3) - 1}
			nextID++
		case 1:
			ev = vtrace.Event{Kind: vtrace.KindTaskOn, Subject: "w", A0: vcpu, A1: id}
		case 2:
			ev = vtrace.Event{Kind: vtrace.KindTaskOff, Subject: "w", A0: vcpu, A1: id, A2: rng.Int63n(2)}
		case 3:
			ev = vtrace.Event{Kind: vtrace.KindTaskMigrate, Subject: "w", A0: id, A1: vcpu, A2: 1 - vcpu}
		case 4:
			ev = vtrace.Event{Kind: vtrace.KindVCPUSpeed, Subject: s.vms[vm], A0: vcpu, A1: 3e5 + rng.Int63n(2e6)}
		default:
			ev = vtrace.Event{Kind: vtrace.KindMigCost, Subject: "w", A0: id, A1: rng.Int63n(5e5)}
		}
		ev.At = now
		s.guest(vm, ev)
	}
	attach := []int{rng.Intn(n / 3), rng.Intn(n / 2), born + rng.Intn(n/4)}
	return s, attach
}

// TestHostFoldSteadyStateAllocs: a steady-state entity event through a
// shared fold — a contender preempting a vCPU with a stalled task, settled
// and blamed by name — allocates nothing.
func TestHostFoldSteadyStateAllocs(t *testing.T) {
	fold := NewHostFold()
	ps := []*Profiler{
		fold.Attach(Config{VM: "a", NominalSpeed: 2.0}),
		fold.Attach(Config{VM: "b", NominalSpeed: 2.0}),
	}
	now := sim.Time(0)
	ent := func(name string, from, to host.EntityState, thread int64) {
		fold.Observe(vtrace.Event{At: now, Kind: vtrace.KindEntityState, Subject: name,
			A0: int64(from), A1: int64(to), A2: thread})
	}
	for _, p := range ps {
		ent(p.cfg.VM+"/vcpu0", host.Blocked, host.Running, 0)
		p.Observe(vtrace.Event{At: now, Kind: vtrace.KindTaskWakeup, Subject: "w", A0: 1, A1: 0, A2: -1})
		p.Observe(vtrace.Event{At: now, Kind: vtrace.KindTaskOn, Subject: "w", A0: 0, A1: 1})
	}
	cycle := func() {
		now += sim.Time(ms)
		ent("a/vcpu0", host.Running, host.Runnable, 0)
		ent("tenant", host.Runnable, host.Running, 0)
		now += sim.Time(ms)
		ent("tenant", host.Running, host.Runnable, 0)
		ent("a/vcpu0", host.Runnable, host.Running, 0)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state entity events allocate %v times per cycle, want 0", n)
	}
	var got sim.Duration
	for _, b := range ps[0].tasks[1].stealBy {
		if fold.names[b.ent] == "tenant" {
			got += b.wait
		}
	}
	if got != 102*ms {
		t.Fatalf("stalled task blames tenant for %v, want 102ms", got)
	}
}

// TestVCPUIndex: only "<VM>/vcpu" followed by plain decimal digits names a
// vCPU of the VM.
func TestVCPUIndex(t *testing.T) {
	p := New(Config{VM: "vm"})
	for _, c := range []struct {
		subject string
		idx     int
		ok      bool
	}{
		{"vm/vcpu0", 0, true},
		{"vm/vcpu7", 7, true},
		{"vm/vcpu12", 12, true},
		{"vm/vcpu007", 7, true},
		{"vm/vcpu", 0, false},
		{"vm/vcpu-1", 0, false},
		{"vm/vcpu+1", 0, false},
		{"vm/vcpu1x", 0, false},
		{"vm/vcpu 1", 0, false},
		{"vm/vcpu99999999999999999999", 0, false},
		{"vm-r1/vcpu0", 0, false},
		{"other/vcpu0", 0, false},
		{"tenant", 0, false},
	} {
		idx, ok := p.vcpuIndex(c.subject)
		if idx != c.idx || ok != c.ok {
			t.Errorf("vcpuIndex(%q) = %d, %v; want %d, %v", c.subject, idx, ok, c.idx, c.ok)
		}
	}
}

// BenchmarkHostObserve measures one host entity event folded with 1, 4 or
// 16 profilers attached, none of them with a stake in it: a contender's
// transitions on a thread no profiled vCPU is homed on. Fanning every event
// out to every profiler grows with the count; the fold must not.
func BenchmarkHostObserve(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("profilers=%d", n), func(b *testing.B) {
			fold := NewHostFold()
			for i := 0; i < n; i++ {
				p := fold.Attach(Config{VM: fmt.Sprintf("vm%d", i), NominalSpeed: 2.0})
				fold.Observe(vtrace.Event{Kind: vtrace.KindEntityState, Subject: p.cfg.VM + "/vcpu0",
					A0: int64(host.Blocked), A1: int64(host.Running), A2: int64(i % 4)})
				p.Observe(vtrace.Event{Kind: vtrace.KindTaskWakeup, Subject: "w", A0: 1, A1: 0, A2: -1})
			}
			evs := [2]vtrace.Event{
				{Kind: vtrace.KindEntityState, Subject: "tenant", A0: int64(host.Runnable), A1: int64(host.Running), A2: 4},
				{Kind: vtrace.KindEntityState, Subject: "tenant", A0: int64(host.Running), A1: int64(host.Runnable), A2: 4},
			}
			for _, ev := range evs {
				fold.Observe(ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := evs[i&1]
				ev.At = sim.Time(i)
				fold.Observe(ev)
			}
		})
	}
}
