package host

import (
	"math"
	"testing"

	"vsched/internal/cachemodel"
	"vsched/internal/sim"
)

// TestTopologyConfig: TopologyConfig is DefaultConfig with the topology
// replaced and, for a flat host, unit SMT and turbo factors.
func TestTopologyConfig(t *testing.T) {
	for _, flat := range []bool{false, true} {
		want := DefaultConfig()
		want.Sockets, want.CoresPerSocket, want.ThreadsPerCore = 2, 3, 1
		if flat {
			want.SMTFactor, want.TurboFactor = 1, 1
		}
		if got := TopologyConfig(2, 3, 1, flat); got != want {
			t.Fatalf("flat=%v: %+v, want %+v", flat, got, want)
		}
	}
	if c := DefaultConfig(); c.SMTFactor == 1 || c.TurboFactor == 1 {
		t.Fatal("DefaultConfig is already flat; the flat case above proves nothing")
	}
}

// recClient records activity callbacks and integrates executed cycles, the
// way the guest layer will.
type recClient struct {
	running bool
	speed   float64
	since   sim.Time
	cycles  float64
	resumes int
	stops   int
}

func (c *recClient) sync(now sim.Time) {
	if c.running {
		c.cycles += float64(now.Sub(c.since)) * c.speed
		c.since = now
	}
}
func (c *recClient) Resumed(now sim.Time, speed float64) {
	c.running = true
	c.speed = speed
	c.since = now
	c.resumes++
}
func (c *recClient) Stopped(now sim.Time) {
	c.sync(now)
	c.running = false
	c.stops++
}
func (c *recClient) SpeedChanged(now sim.Time, speed float64) {
	c.sync(now)
	c.speed = speed
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Sockets = 2
	cfg.CoresPerSocket = 4
	cfg.ThreadsPerCore = 2
	return cfg
}

func newTestHost(t *testing.T) (*sim.Engine, *Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, testConfig())
}

func TestTopologyAndRelations(t *testing.T) {
	_, h := newTestHost(t)
	if h.NumThreads() != 16 {
		t.Fatalf("threads=%d", h.NumThreads())
	}
	a := h.ThreadAt(0, 0, 0)
	if got := h.Relation(a.ID(), a.ID()); got != cachemodel.Self {
		t.Fatalf("self relation=%v", got)
	}
	if got := h.Relation(a.ID(), h.ThreadAt(0, 0, 1).ID()); got != cachemodel.SMT {
		t.Fatalf("smt relation=%v", got)
	}
	if got := h.Relation(a.ID(), h.ThreadAt(0, 3, 0).ID()); got != cachemodel.Socket {
		t.Fatalf("socket relation=%v", got)
	}
	if got := h.Relation(a.ID(), h.ThreadAt(1, 0, 0).ID()); got != cachemodel.Cross {
		t.Fatalf("cross relation=%v", got)
	}
	if a.Sibling() != h.ThreadAt(0, 0, 1) || h.ThreadAt(0, 0, 1).Sibling() != a {
		t.Fatal("sibling symmetry broken")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Sockets = 0 },
		func(c *Config) { c.ThreadsPerCore = 3 },
		func(c *Config) { c.BaseSpeed = 0 },
		func(c *Config) { c.SMTFactor = 0 },
		func(c *Config) { c.TurboFactor = 0.5 },
		func(c *Config) { c.MinGranularity = 0 },
		func(c *Config) { c.BandwidthPeriod = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d should panic", i)
				}
			}()
			New(sim.NewEngine(1), cfg)
		}()
	}
}

func TestSoloEntityRunsAtTurboSpeed(t *testing.T) {
	eng, h := newTestHost(t)
	c := &recClient{}
	e := h.NewEntity("v0", h.Thread(0), DefaultWeight, c)
	e.Wake()
	eng.RunFor(100 * sim.Millisecond)
	c.sync(eng.Now())
	cfg := h.Config()
	wantSpeed := cfg.BaseSpeed * cfg.TurboFactor // alone in socket: turbo
	if math.Abs(c.speed-wantSpeed) > 1e-9 {
		t.Fatalf("speed=%v want %v", c.speed, wantSpeed)
	}
	wantCycles := wantSpeed * float64(100*sim.Millisecond)
	if math.Abs(c.cycles-wantCycles)/wantCycles > 1e-9 {
		t.Fatalf("cycles=%v want %v", c.cycles, wantCycles)
	}
	if e.Steal() != 0 {
		t.Fatalf("solo entity must have no steal, got %v", e.Steal())
	}
	if got := e.RunTime(); got != 100*sim.Millisecond {
		t.Fatalf("runtime=%v", got)
	}
}

func TestTwoEntitiesShareFairly(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	a := h.NewEntity("a", th, DefaultWeight, &recClient{})
	b := h.NewEntity("b", th, DefaultWeight, &recClient{})
	a.Wake()
	b.Wake()
	eng.RunFor(1000 * sim.Millisecond)
	ra, rb := a.RunTime(), b.RunTime()
	if ra+rb < 999*sim.Millisecond {
		t.Fatalf("thread not fully used: %v + %v", ra, rb)
	}
	ratio := float64(ra) / float64(rb)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("unfair split: %v vs %v", ra, rb)
	}
	// Each was runnable-not-running about half the time.
	if a.Steal() < 450*sim.Millisecond || a.Steal() > 550*sim.Millisecond {
		t.Fatalf("steal=%v", a.Steal())
	}
	if a.Preemptions() == 0 {
		t.Fatal("expected involuntary preemptions under contention")
	}
}

func TestWeightedSharing(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	a := h.NewEntity("a", th, 2*DefaultWeight, &recClient{})
	b := h.NewEntity("b", th, DefaultWeight, &recClient{})
	a.Wake()
	b.Wake()
	eng.RunFor(3000 * sim.Millisecond)
	ratio := float64(a.RunTime()) / float64(b.RunTime())
	if ratio < 1.85 || ratio > 2.15 {
		t.Fatalf("weight-2 entity should get ~2x time, ratio=%v", ratio)
	}
}

func TestSMTContentionSlowsSibling(t *testing.T) {
	eng, h := newTestHost(t)
	ca, cb := &recClient{}, &recClient{}
	a := h.NewEntity("a", h.ThreadAt(0, 0, 0), DefaultWeight, ca)
	b := h.NewEntity("b", h.ThreadAt(0, 0, 1), DefaultWeight, cb)
	a.Wake()
	eng.RunFor(10 * sim.Millisecond)
	soloSpeed := ca.speed
	b.Wake()
	eng.RunFor(10 * sim.Millisecond)
	cfg := h.Config()
	// With the sibling busy both run at SMTFactor of base (no turbo change:
	// still one busy core).
	want := cfg.BaseSpeed * cfg.TurboFactor * cfg.SMTFactor
	if math.Abs(ca.speed-want) > 1e-9 || math.Abs(cb.speed-want) > 1e-9 {
		t.Fatalf("smt speeds=%v,%v want %v (solo was %v)", ca.speed, cb.speed, want, soloSpeed)
	}
	b.Block()
	eng.RunFor(1 * sim.Millisecond)
	if math.Abs(ca.speed-soloSpeed) > 1e-9 {
		t.Fatalf("speed must recover after sibling blocks: %v want %v", ca.speed, soloSpeed)
	}
}

func TestTurboDropsWhenSecondCoreBusy(t *testing.T) {
	eng, h := newTestHost(t)
	ca := &recClient{}
	a := h.NewEntity("a", h.ThreadAt(0, 0, 0), DefaultWeight, ca)
	a.Wake()
	eng.RunFor(10 * sim.Millisecond)
	cfg := h.Config()
	if math.Abs(ca.speed-cfg.BaseSpeed*cfg.TurboFactor) > 1e-9 {
		t.Fatalf("solo speed=%v", ca.speed)
	}
	b := h.NewEntity("b", h.ThreadAt(0, 1, 0), DefaultWeight, &recClient{})
	b.Wake()
	eng.RunFor(10 * sim.Millisecond)
	if math.Abs(ca.speed-cfg.BaseSpeed) > 1e-9 {
		t.Fatalf("two busy cores must disable turbo: speed=%v", ca.speed)
	}
	// Other socket is unaffected.
	cc := &recClient{}
	c := h.NewEntity("c", h.ThreadAt(1, 0, 0), DefaultWeight, cc)
	c.Wake()
	eng.RunFor(10 * sim.Millisecond)
	if math.Abs(cc.speed-cfg.BaseSpeed*cfg.TurboFactor) > 1e-9 {
		t.Fatalf("other socket should still turbo: %v", cc.speed)
	}
}

func TestBandwidthThrottling(t *testing.T) {
	eng, h := newTestHost(t)
	c := &recClient{}
	e := h.NewEntity("v0", h.Thread(0), DefaultWeight, c)
	e.SetBandwidth(50 * sim.Millisecond) // 50% of the 100ms period
	e.Wake()
	eng.RunFor(1000 * sim.Millisecond)
	run := e.RunTime()
	if run < 450*sim.Millisecond || run > 550*sim.Millisecond {
		t.Fatalf("throttled runtime=%v want ~500ms", run)
	}
	// Throttled time counts as steal (guest-visible inactivity with work).
	if e.Steal() < 400*sim.Millisecond {
		t.Fatalf("throttled steal=%v", e.Steal())
	}
	// Removing the cap restores full speed.
	e.SetBandwidth(0)
	before := e.RunTime()
	eng.RunFor(200 * sim.Millisecond)
	if got := e.RunTime() - before; got < 199*sim.Millisecond {
		t.Fatalf("uncapped runtime delta=%v", got)
	}
}

func TestPatternContenderForcesInactivity(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	c := &recClient{}
	v := h.NewEntity("vcpu", th, DefaultWeight, c)
	v.Wake()
	// 5ms on / 5ms off: vCPU should be inactive half the time, in 5ms
	// chunks, starting at t=0.
	NewPatternContender(h, "noisy", th, 5*sim.Millisecond, 5*sim.Millisecond, 0)
	eng.RunFor(1000 * sim.Millisecond)
	run := v.RunTime()
	if run < 450*sim.Millisecond || run > 550*sim.Millisecond {
		t.Fatalf("vcpu runtime=%v want ~500ms", run)
	}
	steal := v.Steal()
	if steal < 450*sim.Millisecond || steal > 550*sim.Millisecond {
		t.Fatalf("vcpu steal=%v want ~500ms", steal)
	}
	// ~100 bursts in 1s -> ~100 preemptions.
	if p := v.Preemptions(); p < 90 || p > 110 {
		t.Fatalf("preemptions=%d want ~100", p)
	}
}

func TestRTPreemptsImmediatelyAndIsNotPreempted(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	v := h.NewEntity("vcpu", th, DefaultWeight, &recClient{})
	v.Wake()
	eng.RunFor(10 * sim.Millisecond)
	p := NewPatternContender(h, "rt", th, 8*sim.Millisecond, 100*sim.Millisecond, 0)
	eng.RunFor(1 * sim.Millisecond)
	if p.Entity().State() != Running {
		t.Fatalf("rt contender must preempt instantly, state=%v", p.Entity().State())
	}
	if v.State() != Runnable {
		t.Fatalf("vcpu must be inactive, state=%v", v.State())
	}
	// A CFS wake must not preempt RT.
	w := h.NewEntity("w", th, DefaultWeight, &recClient{})
	w.Wake()
	eng.RunFor(1 * sim.Millisecond)
	if p.Entity().State() != Running {
		t.Fatal("CFS wakee preempted an RT entity")
	}
	eng.RunFor(20 * sim.Millisecond)
	if p.Entity().State() != Blocked {
		t.Fatalf("rt contender should sleep after burst, state=%v", p.Entity().State())
	}
}

func TestWakeupPreemptionOfHog(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	NewStressor(h, "hog", th, DefaultWeight)
	eng.RunFor(500 * sim.Millisecond)
	c := &recClient{}
	v := h.NewEntity("vcpu", th, DefaultWeight, c)
	v.Wake()
	eng.RunFor(1 * sim.Microsecond)
	if v.State() != Running {
		t.Fatalf("fresh wakee should preempt a long-running hog, state=%v", v.State())
	}
}

func TestBlockWakeIdempotent(t *testing.T) {
	eng, h := newTestHost(t)
	e := h.NewEntity("e", h.Thread(0), DefaultWeight, &recClient{})
	e.Block() // blocked -> blocked
	e.Wake()
	e.Wake() // runnable/running -> no-op
	eng.RunFor(1 * sim.Millisecond)
	if e.State() != Running {
		t.Fatalf("state=%v", e.State())
	}
	e.Block()
	e.Block()
	if e.State() != Blocked {
		t.Fatalf("state=%v", e.State())
	}
	eng.RunFor(1 * sim.Millisecond)
	if e.RunTime() != 1*sim.Millisecond {
		t.Fatalf("runtime=%v", e.RunTime())
	}
}

func TestBlockWhileRunnable(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	a := h.NewEntity("a", th, DefaultWeight, &recClient{})
	b := h.NewEntity("b", th, DefaultWeight, &recClient{})
	a.Wake()
	b.Wake()
	// One of them is queued; block it while queued.
	var queued *Entity
	if a.State() == Runnable {
		queued = a
	} else {
		queued = b
	}
	queued.Block()
	if queued.State() != Blocked {
		t.Fatalf("state=%v", queued.State())
	}
	eng.RunFor(10 * sim.Millisecond)
	if queued.RunTime() != 0 {
		t.Fatal("blocked-from-queue entity must not run")
	}
}

func TestMigrate(t *testing.T) {
	eng, h := newTestHost(t)
	src, dst := h.Thread(0), h.ThreadAt(1, 2, 0)
	c := &recClient{}
	e := h.NewEntity("e", src, DefaultWeight, c)
	e.Wake()
	eng.RunFor(10 * sim.Millisecond)
	e.Migrate(dst)
	eng.RunFor(10 * sim.Millisecond)
	if e.Thread() != dst {
		t.Fatal("entity not on destination thread")
	}
	if e.State() != Running {
		t.Fatalf("migrated entity should resume, state=%v", e.State())
	}
	if src.Current() != nil {
		t.Fatal("source thread should be idle")
	}
	// Migrating to the same thread is a no-op.
	e.Migrate(dst)
	if e.State() != Running {
		t.Fatal("self-migration broke state")
	}
	// Runtime keeps accumulating on the new thread.
	if e.RunTime() < 19*sim.Millisecond {
		t.Fatalf("runtime=%v", e.RunTime())
	}
}

func TestStackedEntitiesNeverRunSimultaneously(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	a := h.NewEntity("a", th, DefaultWeight, &recClient{})
	b := h.NewEntity("b", th, DefaultWeight, &recClient{})
	a.Wake()
	b.Wake()
	bothRunning := false
	for i := 0; i < 1000; i++ {
		eng.RunFor(1 * sim.Millisecond)
		if a.State() == Running && b.State() == Running {
			bothRunning = true
		}
	}
	if bothRunning {
		t.Fatal("stacked entities ran at the same time")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() sim.Duration {
		eng := sim.NewEngine(7)
		h := New(eng, testConfig())
		th := h.Thread(0)
		a := h.NewEntity("a", th, DefaultWeight, &recClient{})
		b := h.NewEntity("b", th, 512, &recClient{})
		NewPatternContender(h, "p", th, 3*sim.Millisecond, 7*sim.Millisecond, 500*sim.Microsecond)
		a.Wake()
		b.Wake()
		eng.RunFor(2 * sim.Second)
		return a.RunTime() - b.RunTime()
	}
	if run() != run() {
		t.Fatal("host scheduling is not deterministic")
	}
}

func TestSpeedFactorHeterogeneity(t *testing.T) {
	eng, h := newTestHost(t)
	th := h.Thread(0)
	th.SetSpeedFactor(0.5)
	c := &recClient{}
	e := h.NewEntity("e", th, DefaultWeight, c)
	e.Wake()
	eng.RunFor(10 * sim.Millisecond)
	cfg := h.Config()
	want := cfg.BaseSpeed * 0.5 * cfg.TurboFactor
	if math.Abs(c.speed-want) > 1e-9 {
		t.Fatalf("speed=%v want %v", c.speed, want)
	}
	th.SetSpeedFactor(1.0)
	eng.RunFor(1 * sim.Millisecond)
	if math.Abs(c.speed-cfg.BaseSpeed*cfg.TurboFactor) > 1e-9 {
		t.Fatalf("live factor change not applied: %v", c.speed)
	}
}

func TestRefillUnthrottles(t *testing.T) {
	eng, h := newTestHost(t)
	e := h.NewEntity("e", h.Thread(0), DefaultWeight, &recClient{})
	e.SetBandwidth(10 * sim.Millisecond)
	e.Wake()
	eng.RunFor(50 * sim.Millisecond)
	if e.State() != Throttled {
		t.Fatalf("state=%v want throttled", e.State())
	}
	eng.RunFor(55 * sim.Millisecond) // cross the 100ms period boundary
	if e.State() != Running {
		t.Fatalf("refill did not unthrottle: state=%v", e.State())
	}
	if rt := e.RunTime(); rt < 14*sim.Millisecond || rt > 16*sim.Millisecond {
		t.Fatalf("runtime=%v want ~15ms (10ms quota + 5ms of new period)", rt)
	}
}

func TestWakeWhenQuotaExhausted(t *testing.T) {
	eng, h := newTestHost(t)
	e := h.NewEntity("e", h.Thread(0), DefaultWeight, &recClient{})
	e.SetBandwidth(5 * sim.Millisecond)
	e.Wake()
	eng.RunFor(20 * sim.Millisecond)
	if e.State() != Throttled {
		t.Fatalf("state=%v", e.State())
	}
	e.Block()
	e.Wake() // waking with exhausted quota goes straight to Throttled
	if e.State() != Throttled {
		t.Fatalf("wake with exhausted quota: state=%v", e.State())
	}
}
