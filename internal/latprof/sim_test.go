package latprof

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// contendedRig runs a small but physically rich scenario — SMT and turbo
// on, a duty-cycling co-tenant, CPU bandwidth quota, guest queueing and
// cross-vCPU migration — with a ring tracer AND a live profiler attached to
// the same stream. Returns the live profile and the tracer.
func contendedRig(seed int64) (*Profile, *vtrace.Tracer) {
	eng := sim.NewEngine(seed)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 2
	h := host.New(eng, cfg)

	tr := vtrace.New(0)
	vtrace.AttachHost(tr, h)

	threads := []*host.Thread{h.Thread(0), h.Thread(1), h.Thread(2), h.Thread(3)}
	vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
	p := New(Config{VM: "vm", NominalSpeed: cfg.BaseSpeed})
	tr.SetObserver(p.Observe)
	vm.SetTracer(tr)
	vm.Start()

	// Steal on vCPU 0, SMT pressure on vCPU 1 (thread 1 is core 0's second
	// slot), throttling on vCPU 2.
	host.NewPatternContender(h, "tenant", h.Thread(0), 5*sim.Millisecond, 5*sim.Millisecond, 0)
	host.NewPatternContender(h, "sibling", h.Thread(1), 3*sim.Millisecond, 3*sim.Millisecond, 0)
	vm.VCPU(2).Entity().SetBandwidth(40 * sim.Millisecond)

	// Two competing compute/sleep tasks per vCPU (guest queueing), plus a
	// hopper that migrates between vCPUs 0 and 3 (migration cost).
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			vm.Spawn("w", func(sim.Time) guest.Segment {
				if eng.Rand().Intn(4) == 0 {
					return guest.Sleep(sim.Duration(200+eng.Rand().Intn(300)) * sim.Microsecond)
				}
				return guest.Compute(4e5)
			}, guest.StartOn(i))
		}
	}
	hop := 0
	vm.Spawn("hopper", func(sim.Time) guest.Segment {
		hop++
		switch hop % 3 {
		case 0:
			return guest.MigrateTo((hop / 3 % 2) * 3)
		case 1:
			return guest.Compute(6e5)
		default:
			return guest.Sleep(300 * sim.Microsecond)
		}
	}, guest.StartOn(0))

	eng.RunFor(500 * sim.Millisecond)
	return p.Finish(eng.Now()), tr
}

// TestConservationPropertyAcrossSeeds is the acceptance-criteria property
// test: in a real simulation, every reconstructed span's components sum to
// its wall time exactly, across seeds, and every cause actually occurs.
func TestConservationPropertyAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		prof, _ := contendedRig(seed)
		if err := prof.CheckConservation(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(prof.Spans) < 50 {
			t.Fatalf("seed %d: only %d spans reconstructed", seed, len(prof.Spans))
		}
		tot := prof.Totals()
		for _, c := range []Cause{Run, RunnableWait, StealWait, ThrottleWait, Migration, SMTSlowdown} {
			if tot.NS[c] <= 0 {
				t.Errorf("seed %d: cause %s never observed (rig should exercise it)", seed, c)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestLivePostHocEquivalence: folding the ring post-hoc must reconstruct
// the same profile as the live observer when nothing was dropped.
func TestLivePostHocEquivalence(t *testing.T) {
	live, tr := contendedRig(42)
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; rig must fit the default ring", tr.Dropped())
	}
	post := FromTracer(tr, Config{VM: "vm", NominalSpeed: 2.0})
	if len(live.Spans) != len(post.Spans) {
		t.Fatalf("live %d spans vs post-hoc %d", len(live.Spans), len(post.Spans))
	}
	if lp, pp := published(live), published(post); !reflect.DeepEqual(lp, pp) {
		t.Fatalf("live vs post-hoc summary mismatch:\n%v\n%v", lp, pp)
	}
	if live.String() != post.String() {
		t.Fatalf("live vs post-hoc report mismatch:\n%s\n%s", live.String(), post.String())
	}
}

// TestProfileDeterminism: identical seeds produce byte-identical reports.
func TestProfileDeterminism(t *testing.T) {
	a, _ := contendedRig(7)
	b, _ := contendedRig(7)
	if a.String() != b.String() {
		t.Fatalf("reports differ across identical runs:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !reflect.DeepEqual(a.Spans, b.Spans) {
		t.Fatal("span slices differ across identical runs")
	}
}

// TestStealBlameNamesContender: the co-tenant pinned on thread 0 must show
// up as a blamed entity for steal-wait.
func TestStealBlameNamesContender(t *testing.T) {
	prof, _ := contendedRig(42)
	blame := prof.TopBlame(0)
	var tenant sim.Duration
	for _, b := range blame {
		if b.Entity == "tenant" {
			tenant = b.Wait
		}
	}
	if tenant <= 0 {
		t.Fatalf("tenant not blamed for any steal-wait; blame = %+v", blame)
	}
}

// TestChromeTrackExport: the attribution track renders into a valid Chrome
// trace with per-cause args, byte-identically across exports.
func TestChromeTrackExport(t *testing.T) {
	prof, tr := contendedRig(42)
	var a, b bytes.Buffer
	if err := tr.WriteChrome(&a, []vtrace.SpanTrack{prof.ChromeTrack()}, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := tr.WriteChrome(&b, []vtrace.SpanTrack{prof.ChromeTrack()}, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("attribution track export is not byte-deterministic")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
	for _, want := range []string{
		`"process_name","args":{"name":"attribution"}`,
		`"steal_wait_ns":`,
		`"wall_ns":`,
		`"cat":"attribution"`,
		`"droppedEvents":0`,
	} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Fatalf("export missing %s", want)
		}
	}
}
