package core

import (
	"testing"

	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
)

func TestAutoTuneGrowsSamplingForLongCycles(t *testing.T) {
	// 120ms activity cycles (80ms inactive bursts): the default 100ms
	// sampling period aliases; AutoTune must stretch it.
	eng := sim.NewEngine(4)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 1
	cfg.TurboFactor, cfg.SMTFactor, cfg.BaseSpeed = 1, 1, 1
	h := host.New(eng, cfg)
	host.NewPatternContender(h, "p", h.Thread(0), 80*sim.Millisecond, 40*sim.Millisecond, 0)
	vm := guest.NewVM(h, "vm", []*host.Thread{h.Thread(0), h.Thread(1)}, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, Features{Vcap: true, Vact: true})
	eng.RunFor(10 * sim.Second)

	tuned := s.AutoTune()
	if tuned.SamplePeriod <= 100*sim.Millisecond {
		t.Fatalf("sampling period should stretch past the 120ms cycle, got %v", tuned.SamplePeriod)
	}
	if tuned.SamplePeriod > 500*sim.Millisecond {
		t.Fatalf("sampling period must stay bounded, got %v", tuned.SamplePeriod)
	}
	if tuned.LightEvery < 10*tuned.SamplePeriod {
		t.Fatalf("probing duty ratio must stay ~1:10: %v / %v", tuned.SamplePeriod, tuned.LightEvery)
	}
	if tuned.IVHMinRun != 2*vm.Params().TickPeriod {
		t.Fatalf("ivh threshold should track the tick: %v", tuned.IVHMinRun)
	}
	if s.Params().SamplePeriod != tuned.SamplePeriod {
		t.Fatal("AutoTune must install the new params")
	}
}

func TestAutoTuneKeepsDefaultsOnQuietHost(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 1
	h := host.New(eng, cfg)
	vm := guest.NewVM(h, "vm", []*host.Thread{h.Thread(0), h.Thread(1)}, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, Features{Vcap: true, Vact: true})
	eng.RunFor(6 * sim.Second)
	tuned := s.AutoTune()
	if tuned.SamplePeriod != 100*sim.Millisecond {
		t.Fatalf("dedicated host should keep the default period, got %v", tuned.SamplePeriod)
	}
}

func TestVllcMeasuresCachePressure(t *testing.T) {
	// Two believed sockets; socket 0 is loaded with cache-heavy tasks whose
	// footprints overflow the LLC, socket 1 is clean. The prober must report
	// a lower share for socket 0.
	eng := sim.NewEngine(6)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 2, 4, 1
	cfg.TurboFactor, cfg.SMTFactor, cfg.BaseSpeed = 1, 1, 1
	h := host.New(eng, cfg)
	var threads []*host.Thread
	for i := 0; i < 8; i++ {
		threads = append(threads, h.Thread(i))
	}
	vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, Features{Vcap: true, Vact: true, Vtop: true, Vllc: true})
	// Cache-heavy residents pinned on socket 0 (threads 0..3).
	for i := 0; i < 3; i++ {
		vm.Spawn("mem", func(sim.Time) guest.Segment { return guest.ComputeForever() },
			guest.WithAffinity(i), guest.WithFootprint(10))
	}
	eng.RunFor(12 * sim.Second)

	loaded := s.CacheShare(0)
	clean := s.CacheShare(7)
	if loaded >= 0.95 {
		t.Fatalf("loaded socket should show cache pressure, share=%.2f", loaded)
	}
	if clean < 0.9 {
		t.Fatalf("clean socket should be near 1.0, share=%.2f", clean)
	}
	if clean <= loaded {
		t.Fatalf("shares inverted: clean %.2f vs loaded %.2f", clean, loaded)
	}
}

func TestCacheShareDefaultsToOne(t *testing.T) {
	eng := sim.NewEngine(7)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 1
	h := host.New(eng, cfg)
	vm := guest.NewVM(h, "vm", []*host.Thread{h.Thread(0), h.Thread(1)}, guest.DefaultParams())
	vm.Start()
	s := Attach(vm, Features{Vcap: true})
	if s.CacheShare(0) != 1.0 {
		t.Fatal("unmeasured share must default to 1.0")
	}
	_ = eng
}
