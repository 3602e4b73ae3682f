package experiments

import (
	"strconv"
	"testing"
)

// TestFleetStealAwareBeatsFirstFit pins the experiment's headline: telemetry-
// driven placement must deliver a lower fleet-wide p95 than packing, for
// both guest configurations.
func TestFleetStealAwareBeatsFirstFit(t *testing.T) {
	rep := FleetScale(Options{Seed: 42, Scale: 0.1})
	p95 := func(row int) float64 {
		v, err := strconv.ParseFloat(rep.Cell(row, 5), 64)
		if err != nil {
			t.Fatalf("row %d p95 cell %q: %v", row, rep.Cell(row, 5), err)
		}
		return v
	}
	// Row order: policies {first-fit, least-loaded, steal-aware} x guests
	// {CFS, vSched}.
	for guest, off := range map[string]int{"CFS": 0, "vSched": 1} {
		ff, sa := p95(0+off), p95(4+off)
		if sa >= ff {
			t.Errorf("%s guests: steal-aware p95 %.2fms does not beat first-fit %.2fms", guest, sa, ff)
		}
	}
}
