package experiments

import (
	"strings"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

func TestRegistryIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Registry() {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		if _, ok := ByID(r.ID); !ok {
			t.Fatalf("ByID(%s) failed", r.ID)
		}
	}
	if len(seen) != 24 { // 19 paper figures/tables + probeacc + fleet + attrib + fleetscale + faulttol
		t.Fatalf("want 24 experiments, got %d", len(seen))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID must reject unknown ids")
	}
}

func TestReportFormatting(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.Add("1", "2")
	r.Notef("n=%d", 3)
	s := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report text missing %q:\n%s", want, s)
		}
	}
	if r.Cell(0, 1) != "2" {
		t.Fatalf("cell access broken")
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaled(10 * sim.Second); got != 5*sim.Second {
		t.Fatalf("scaled=%v", got)
	}
	if got := o.warm(1 * sim.Second); got != 4*sim.Second {
		t.Fatalf("warm floor not applied: %v", got)
	}
	o = Options{} // zero scale behaves like 1.0
	if got := o.scaled(3 * sim.Second); got != 3*sim.Second {
		t.Fatalf("zero-scale=%v", got)
	}
}

func TestVMTypeShapes(t *testing.T) {
	c, threads := rcvmCluster(Options{Seed: 1})
	if len(threads) != 12 {
		t.Fatalf("rcvm wants 12 vCPUs, got %d", len(threads))
	}
	if threads[10] != threads[11] {
		t.Fatal("rcvm vCPUs 10 and 11 must be stacked on one thread")
	}
	if threads[0].Core() == threads[2].Core() {
		t.Fatal("rcvm vCPU0/2 must sit on distinct cores")
	}
	_ = c

	c2, threads2 := hpvmCluster(Options{Seed: 1})
	if len(threads2) != 32 {
		t.Fatalf("hpvm wants 32 vCPUs, got %d", len(threads2))
	}
	sockets := map[int]int{}
	for _, th := range threads2 {
		sockets[th.Socket()]++
	}
	if len(sockets) != 4 {
		t.Fatalf("hpvm must span 4 sockets: %v", sockets)
	}
	// Socket 3 is dedicated: no contenders there.
	for _, e := range c2.h.Entities() {
		if e.Thread().Socket() == 3 && strings.HasPrefix(e.Name(), "tenant") {
			t.Fatal("hpvm socket 3 must be dedicated")
		}
	}
}

func TestCategoryApply(t *testing.T) {
	c := newFlatCluster(Options{Seed: 1}, 1, 2, 1)
	catHCLL.apply(c, c.h.Thread(0))
	// A vCPU entity sharing thread 0 should now get ~70%.
	e := c.h.NewEntity("probe", c.h.Thread(0), host.DefaultWeight, host.NopClient{})
	e.Wake()
	c.eng.RunFor(2 * sim.Second)
	share := float64(e.RunTime()) / float64(2*sim.Second)
	if share < 0.6 || share > 0.8 {
		t.Fatalf("hcll share=%.2f want ~0.7", share)
	}
	// Dedicated category installs nothing.
	before := len(c.h.Entities())
	category{"dedicated", 1.0, 0}.apply(c, c.h.Thread(1))
	if len(c.h.Entities()) != before {
		t.Fatal("dedicated category must not add contenders")
	}
}

// The cheap experiments run end to end at a tiny scale; the expensive ones
// are covered too unless -short.
func TestExperimentsProduceReports(t *testing.T) {
	fast := []string{"fig3", "fig10a", "fig10b", "table2", "fig11"}
	heavy := []string{"fig2", "fig4", "fig12", "fig13", "fig14", "table3",
		"fig15", "table4", "fig16", "fig17", "fig20", "fig21"}
	// fig18/fig19 are exercised by the bench suite; including them here too
	// would double test time for no extra coverage.
	ids := fast
	if !testing.Short() {
		ids = append(ids, heavy...)
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			r, _ := ByID(id)
			rep := r.Run(Options{Seed: 42, Scale: 0.05})
			if rep.ID != id {
				t.Fatalf("report id %q", rep.ID)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Header) {
					t.Fatalf("row width %d != header %d: %v", len(row), len(rep.Header), row)
				}
			}
		})
	}
}

func TestExperimentDeterminism(t *testing.T) {
	run := func() string {
		r, _ := ByID("fig3")
		return r.Run(Options{Seed: 9, Scale: 0.2}).String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("experiments must be deterministic:\n%s\nvs\n%s", a, b)
	}
}
