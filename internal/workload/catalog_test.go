package workload

import "testing"

// The catalog's structural invariants, asserted rather than only stated in
// the spec-table comments.

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalog() {
		if s.Name == "" {
			t.Fatal("catalog entry with empty name")
		}
		if seen[s.Name] {
			t.Fatalf("duplicate benchmark name %q", s.Name)
		}
		seen[s.Name] = true
	}
	if len(seen) != len(Names()) {
		t.Fatalf("Catalog has %d names, Names() returns %d", len(seen), len(Names()))
	}
}

func TestParallelSpecInvariants(t *testing.T) {
	for _, ps := range parallelSpecs {
		if ps.IterWork <= 0 {
			t.Errorf("%s: non-positive IterWork %v", ps.Name, ps.IterWork)
		}
		if ps.CritFrac < 0 || ps.CritFrac >= 1 {
			t.Errorf("%s: CritFrac %v outside [0,1)", ps.Name, ps.CritFrac)
		}
		if ps.SerialFrac < 0 || ps.SerialFrac >= 1 {
			t.Errorf("%s: SerialFrac %v outside [0,1)", ps.Name, ps.SerialFrac)
		}
		if ps.Imbalance < 0 || ps.Imbalance >= 1 {
			t.Errorf("%s: Imbalance %v outside [0,1)", ps.Name, ps.Imbalance)
		}
		switch ps.Sync {
		case SyncLock, SyncSpinLock:
			if ps.CritFrac == 0 {
				t.Errorf("%s: lock-synchronised kernel without a critical section", ps.Name)
			}
			// The lock-saturation bound the spec table promises: at the
			// suite's maximum thread count the serialised critical sections
			// must still fit inside one iteration's parallel work, or the
			// lock (not the scheduler) becomes the bottleneck being measured.
			const maxThreads = 32
			if ps.CritFrac*maxThreads >= 1 {
				t.Errorf("%s: lock saturates at %d threads (crit*threads = %.2f >= 1)",
					ps.Name, maxThreads, ps.CritFrac*maxThreads)
			}
		default:
			if ps.CritFrac != 0 {
				t.Errorf("%s: CritFrac set on a lock-free kernel", ps.Name)
			}
		}
	}
}

func TestPipelineAndTailSpecInvariants(t *testing.T) {
	for _, pl := range pipelineSpecs {
		if pl.WorkCPU <= 0 {
			t.Errorf("%s: non-positive WorkCPU %v", pl.Name, pl.WorkCPU)
		}
	}
	for _, ts := range tailSpecs {
		if ts.svc <= 0 {
			t.Errorf("%s: non-positive service time %v", ts.name, ts.svc)
		}
	}
}

// TestCatalogHeavyTails pins which catalogued services draw heavy-tailed
// service times: the search and speech services do, OLTP ones do not.
func TestCatalogHeavyTails(t *testing.T) {
	_, vm := testVM(t, 2)
	for name, heavy := range map[string]bool{"sphinx": true, "xapian": true, "silo": false} {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("%s not catalogued", name)
		}
		if got := spec.New(env(vm, 0)).(*Server).heavyTail; got != heavy {
			t.Errorf("%s: heavyTail %v, want %v", name, got, heavy)
		}
	}
}
