package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// scanPlace is the O(hosts) reference the HostIndex is checked against: the
// row that fits vcpus with the strictly smallest Score, ties to the lowest
// index (for first-fit, whose Score is 0, the first fitting row), or -1.
func scanPlace(pol Policy, rows []HostInfo, vcpus int) int {
	best := -1
	bestScore := 0.0
	for i, h := range rows {
		if h.Committed+vcpus > h.Capacity {
			continue
		}
		if score := pol.Score(h); best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

func TestHostIndexFirstFit(t *testing.T) {
	caps := []int{4, 8, 4}
	ix := NewHostIndex(caps)
	if got := ix.FirstFit(4); got != 0 {
		t.Fatalf("empty index FirstFit(4) = %d, want 0", got)
	}
	if got := ix.FirstFit(8); got != 1 {
		t.Fatalf("FirstFit(8) = %d, want 1 (only host with capacity 8)", got)
	}
	if got := ix.FirstFit(9); got != -1 {
		t.Fatalf("FirstFit(9) = %d, want -1 (nothing fits)", got)
	}
	ix.Update(0, 3, 0) // free 1
	if got := ix.FirstFit(2); got != 1 {
		t.Fatalf("FirstFit(2) after filling host 0 = %d, want 1", got)
	}
	if got := ix.FirstFit(1); got != 0 {
		t.Fatalf("FirstFit(1) = %d, want 0 (still one free slot)", got)
	}
	ix.Update(1, 8, 0)
	ix.Update(2, 4, 0)
	ix.Update(0, 4, 0)
	if got := ix.FirstFit(1); got != -1 {
		t.Fatalf("FirstFit(1) on full fleet = %d, want -1", got)
	}
}

func TestHostIndexBestScoreTieBreak(t *testing.T) {
	// Heterogeneous capacities, equal scores: lowest host ID must win, the
	// same tie-break scanPlace's strict `<` produces.
	caps := []int{8, 16, 8, 16}
	ix := NewHostIndex(caps)
	for i := range caps {
		ix.Update(i, 0, 1.5)
	}
	if got := ix.BestScore(4); got != 0 {
		t.Fatalf("all-tied BestScore = %d, want 0", got)
	}
	// Host 0 can't fit a 12-vCPU VM; hosts 1 and 3 tie — 1 wins.
	if got := ix.BestScore(12); got != 1 {
		t.Fatalf("BestScore(12) = %d, want 1 (lowest fitting tied host)", got)
	}
	// Strictly better score on a later host beats the earlier tie.
	ix.Update(3, 0, 1.0)
	if got := ix.BestScore(12); got != 3 {
		t.Fatalf("BestScore(12) = %d, want 3 (strictly lower score)", got)
	}
	// An equal score arriving later must NOT displace the current best.
	ix.Update(1, 0, 1.0)
	if got := ix.BestScore(12); got != 1 {
		t.Fatalf("BestScore(12) = %d, want 1 (equal scores tie to lower ID)", got)
	}
}

// setLeaf writes host i's leaf and none of its ancestors; Rebuild then
// recomputes them all. It is the reference construction the incremental
// paths are checked against.
func setLeaf(ix *HostIndex, i, committed int, score float64) {
	ix.free[ix.size+i] = ix.capacity[i] - int32(committed)
	ix.score[ix.size+i] = score
}

// TestHostIndexRebuildMatchesUpdate applies random batches of leaf writes to
// two indexes, one through leaf writes plus a single Rebuild and one through
// an Update per write. Scores include -Inf, +Inf and ties; committed may exceed
// capacity, leaving negative free the way the macro tier's degraded hosts do.
// After every batch the trees must match node for node and answer every
// FirstFit and BestScore query alike.
func TestHostIndexRebuildMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float64{math.Inf(-1), math.Inf(1), 0, 0.5, 0.5, 1}
	for _, hosts := range []int{1, 2, 37, 64} {
		caps := make([]int, hosts)
		for i := range caps {
			caps[i] = 4 * (1 + rng.Intn(4)) // 4..16: heterogeneous
		}
		bulk, path := NewHostIndex(caps), NewHostIndex(caps)
		for batch := 0; batch < 300; batch++ {
			writes := 1 + rng.Intn(hosts)
			if batch%4 == 0 {
				writes = hosts // every leaf at once
			}
			for w := 0; w < writes; w++ {
				i := rng.Intn(hosts)
				if writes == hosts {
					i = w
				}
				committed := rng.Intn(caps[i] + 9) // up to 8 over capacity
				score := rng.Float64()
				if rng.Intn(2) == 0 {
					score = special[rng.Intn(len(special))]
				}
				setLeaf(bulk, i, committed, score)
				path.Update(i, committed, score)
			}
			bulk.Rebuild()
			for node := range path.free {
				if bulk.free[node] != path.free[node] ||
					math.Float64bits(bulk.score[node]) != math.Float64bits(path.score[node]) {
					t.Fatalf("hosts=%d batch %d node %d: rebuild (free %d, score %v) != updates (free %d, score %v)",
						hosts, batch, node, bulk.free[node], bulk.score[node], path.free[node], path.score[node])
				}
			}
			for v := 0; v <= 17; v++ {
				if a, b := bulk.FirstFit(v), path.FirstFit(v); a != b {
					t.Fatalf("hosts=%d batch %d: FirstFit(%d) rebuild %d, updates %d", hosts, batch, v, a, b)
				}
				if a, b := bulk.BestScore(v), path.BestScore(v); a != b {
					t.Fatalf("hosts=%d batch %d: BestScore(%d) rebuild %d, updates %d", hosts, batch, v, a, b)
				}
			}
		}
	}
}

// TestIndexedMatchesLinear drives a HostIndex and the scanPlace reference
// through the same randomized sequence of placements, departures,
// steal-telemetry updates and host faults over a heterogeneous fleet, and
// requires identical decisions from every policy at every step. A fault
// takes a host down (effective capacity 0), browns it out (int(factor·cap))
// or restores it; every leaf is written through the production indexLeaf,
// and the reference scans effective-capacity rows, so a down host's +Inf
// score and a degraded host's inflated commitment are checked too.
func TestIndexedMatchesLinear(t *testing.T) {
	for _, pol := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const hosts = 37 // not a power of two: exercises unused leaves
			caps := make([]int, hosts)
			for i := range caps {
				caps[i] = 8 + 8*rng.Intn(3) // 8, 16 or 24: heterogeneous
			}
			ix := NewHostIndex(caps)
			rows := make([]HostInfo, hosts) // Capacity is the effective bound
			for i := range rows {
				rows[i].Capacity = caps[i]
			}
			type placed struct{ host, vcpus int }
			var live []placed
			faulted := 0

			reindex := func(i int) {
				committed, score := indexLeaf(pol, rows[i], caps[i])
				ix.Update(i, committed, score)
			}
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(12); {
				case op < 6: // place
					v := 1 + rng.Intn(12)
					want := scanPlace(pol, rows, v)
					got := pol.Place(ix, v)
					if got != want {
						t.Fatalf("step %d: Place(%d) = %d, scan = %d", step, v, got, want)
					}
					if got >= 0 {
						rows[got].Committed += v
						live = append(live, placed{got, v})
						reindex(got)
					}
				case op < 8: // depart
					if len(live) == 0 {
						continue
					}
					k := rng.Intn(len(live))
					p := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					rows[p.host].Committed -= p.vcpus
					reindex(p.host)
				case op < 10: // telemetry tick: steal EMAs move
					i := rng.Intn(hosts)
					rows[i].StealRate = rng.Float64() * 0.5
					reindex(i)
				default: // fault: down, brownout or recovery
					i := rng.Intn(hosts)
					switch rng.Intn(3) {
					case 0:
						rows[i].Capacity = 0
					case 1:
						rows[i].Capacity = int((0.25 + 0.5*rng.Float64()) * float64(caps[i]))
					default:
						rows[i].Capacity = caps[i]
					}
					if rows[i].Capacity < caps[i] {
						faulted++
					}
					reindex(i)
				}
			}
			if faulted == 0 {
				t.Fatal("no step took a host down or browned it out")
			}
		})
	}
}

// BenchmarkPlacement times the placement hot path in isolation: a churn of
// place (60%), depart (30%) and steal-telemetry (10%) operations over a
// heterogeneous fleet, with StealAware deciding through the HostIndex or
// through the scanPlace reference. TestIndexedMatchesLinear pins that both
// make the same decisions, so only the cost differs. ns/op is per churn
// operation; placements/s is the index-vs-scan headline.
func BenchmarkPlacement(b *testing.B) {
	const hosts = 1024
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "index"
		}
		b.Run(fmt.Sprintf("%s/hosts=%d", name, hosts), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			pol := StealAware{}
			caps := make([]int, hosts)
			for i := range caps {
				caps[i] = 16 + 16*rng.Intn(2) // 16 or 32, heterogeneous
			}
			rows := make([]HostInfo, hosts)
			for i := range rows {
				rows[i] = HostInfo{Capacity: caps[i]}
			}
			ix := NewHostIndex(caps)
			refresh := func(i int) {
				if indexed {
					ix.Update(i, rows[i].Committed, pol.Score(rows[i]))
				}
			}
			type placed struct{ host, vcpus int }
			var live []placed
			placements := 0
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				switch r := rng.Intn(10); {
				case r < 6:
					v := 1 + rng.Intn(8)
					var hi int
					if indexed {
						hi = pol.Place(ix, v)
					} else {
						hi = scanPlace(pol, rows, v)
					}
					placements++
					if hi >= 0 {
						rows[hi].Committed += v
						live = append(live, placed{hi, v})
						refresh(hi)
					}
				case r < 9:
					if len(live) == 0 {
						continue
					}
					k := rng.Intn(len(live))
					p := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					rows[p.host].Committed -= p.vcpus
					refresh(p.host)
				default:
					i := rng.Intn(hosts)
					rows[i].StealRate = rng.Float64() * 0.4
					refresh(i)
				}
			}
			b.ReportMetric(float64(placements)/b.Elapsed().Seconds(), "placements/s")
		})
	}
}

func TestGenerateArrivalsEdgeCases(t *testing.T) {
	mix := []TypeMix{{Type: VMType{Name: "b", VCPUs: 2, BatchWork: sim.Millisecond}, Weight: 1, MeanLifetime: sim.Second}}

	t.Run("negative window panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on negative window")
			}
		}()
		GenerateArrivals(1, 10, -sim.Second, mix)
	})
	t.Run("negative mean lifetime panics", func(t *testing.T) {
		bad := []TypeMix{{Type: mix[0].Type, Weight: 1, MeanLifetime: -sim.Second}}
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on negative mean lifetime")
			}
		}()
		GenerateArrivals(1, 10, sim.Second, bad)
	})
	t.Run("zero window collapses arrivals deterministically", func(t *testing.T) {
		as := GenerateArrivals(3, 50, 0, mix)
		if len(as) != 50 {
			t.Fatalf("got %d arrivals, want 50", len(as))
		}
		for i, a := range as {
			if a.At != 0 {
				t.Fatalf("arrival %d at %v, want 0 (zero window)", i, a.At)
			}
			if a.ID != i {
				t.Fatalf("arrival %d has ID %d: IDs must be strictly increasing for the tie-break", i, a.ID)
			}
			if a.Lifetime < 50*sim.Millisecond {
				t.Fatalf("arrival %d lifetime %v below the 50ms floor", i, a.Lifetime)
			}
		}
	})
	t.Run("pinned lifetimes are zero", func(t *testing.T) {
		pinned := []TypeMix{{Type: mix[0].Type, Weight: 1}}
		for _, a := range GenerateArrivals(5, 20, sim.Second, pinned) {
			if a.Lifetime != 0 {
				t.Fatalf("pinned mix produced lifetime %v, want 0", a.Lifetime)
			}
		}
	})
}

// TestSimultaneousArrivalOrder shuffles a trace whose arrivals all share one
// timestamp and checks Run processes them in ascending ID order regardless of
// slice order: the same hosts get the same VMs either way.
func TestSimultaneousArrivalOrder(t *testing.T) {
	mk := func(perm []int) map[string]int {
		byHost := map[string]int{}
		tr := vtrace.NewObserver(func(ev vtrace.Event) {
			if ev.Kind == vtrace.KindVMPlace && ev.A0 >= 0 {
				byHost[ev.Subject] = int(ev.A0)
			}
		})
		cfg := testConfig(1, LeastLoaded{}, false)
		typ := VMType{Name: "b", VCPUs: 2, BatchWork: 500 * sim.Microsecond}
		arrivals := make([]Arrival, len(perm))
		for i, id := range perm {
			// Negative lifetimes exercise the normalise-to-horizon path too.
			arrivals[i] = Arrival{ID: id, Type: typ, At: 0, Lifetime: -sim.Second}
		}
		cfg.Arrivals = arrivals
		cfg.Horizon = 10 * sim.Millisecond
		cfg.Tracer = tr
		New(cfg).Run()
		return byHost
	}
	sorted := mk([]int{0, 1, 2, 3, 4, 5})
	shuffled := mk([]int{4, 1, 5, 0, 3, 2})
	if len(sorted) != 6 {
		t.Fatalf("placed %d VMs, want 6", len(sorted))
	}
	for name, h := range sorted {
		if shuffled[name] != h {
			t.Fatalf("VM %s placed on host %d sorted vs %d shuffled: simultaneous arrivals must sort by ID", name, h, shuffled[name])
		}
	}
}
