package host

import (
	"testing"

	"vsched/internal/sim"
)

// BenchmarkBusyFlip times one core-level start and stop (Wake then Block of
// an entity alone on its core) on a 20-core SMT socket with turbo. With
// flip=true one other core is busy, so each start and stop crosses the
// socket's busy-core count between 1 and 2 and retunes every running
// thread; with flip=false ten other cores are busy and the count moves
// between 10 and 11, which changes no other thread's speed.
func BenchmarkBusyFlip(b *testing.B) {
	for _, bc := range []struct {
		name string
		busy int
	}{{"flip=true", 1}, {"flip=false", 10}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig()
			cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 20, 2
			h := New(eng, cfg)
			for c := 0; c < bc.busy; c++ {
				NewStressor(h, "busy", h.ThreadAt(0, c, 0), DefaultWeight)
			}
			e := h.NewEntity("flip", h.ThreadAt(0, 19, 0), DefaultWeight, NopClient{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Wake()
				e.Block()
			}
		})
	}
}
