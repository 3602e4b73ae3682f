package fleet

import (
	"fmt"
	"math"
)

// HostIndex replaces the O(hosts) placement scan with a tournament tree: an
// array-backed complete binary tree whose leaves are hosts (in stable host-ID
// order) and whose internal nodes aggregate two things about their subtree —
// the maximum free capacity (can anything down there fit this VM?) and the
// minimum policy score (could anything down there beat the best host found so
// far?).
//
// Queries:
//
//   - FirstFit(v): the lowest-indexed host with free >= v, by descending into
//     the leftmost fitting subtree. Exactly O(log n).
//   - BestScore(v): the fitting host with the strictly smallest score, ties
//     to the lowest index, by left-first branch-and-bound descent: a subtree
//     is visited only if something there fits AND its best score beats the
//     best found so far. Worst case O(n) on adversarial score layouts, but
//     measured on fleet churn it stays near O(log n) because score and free
//     capacity correlate (see DESIGN.md and BenchmarkPlacement).
//
// Updates (occupancy or score changes on one host) rewrite one leaf and its
// root path: O(log n). A caller that rewrites every leaf at once (the macro
// tier's epoch-boundary rescore) writes the leaves with SetLeaf and then
// calls Rebuild once: n-1 pulls instead of n root paths, and the same tree.
// The index holds per-host capacity, so heterogeneous fleets work without
// the policies knowing.
//
// Determinism: queries read only the tree, tie-break by construction toward
// lower host IDs (left-first descent, strict-inequality pruning), and the
// tree layout is a pure function of the host list — no map iteration
// anywhere. BestScore reproduces the linear scan's "score < best" loop
// bit-for-bit as long as scores are computed by the same expression (the
// differential test in index_test.go pins this).
type HostIndex struct {
	n    int // hosts (leaves in use)
	size int // leaf capacity, power of two
	// free[i] and score[i] are the per-node aggregates; leaves live at
	// [size, size+n). Unused leaves hold free=-1, score=+Inf so they never
	// fit and never win.
	free     []int32
	score    []float64
	capacity []int32 // per host, leaf order
}

// NewHostIndex builds an index over len(caps) hosts with the given per-host
// admission capacities (committed starts at 0, score at 0).
func NewHostIndex(caps []int) *HostIndex {
	n := len(caps)
	if n == 0 {
		panic("fleet: host index needs at least one host")
	}
	size := 1
	for size < n {
		size *= 2
	}
	ix := &HostIndex{
		n:        n,
		size:     size,
		free:     make([]int32, 2*size),
		score:    make([]float64, 2*size),
		capacity: make([]int32, n),
	}
	for i := range ix.free {
		ix.free[i] = -1
		ix.score[i] = math.Inf(1)
	}
	for i, c := range caps {
		if c < 0 {
			panic(fmt.Sprintf("fleet: host %d capacity %d negative", i, c))
		}
		ix.capacity[i] = int32(c)
		ix.free[size+i] = int32(c)
		ix.score[size+i] = 0
	}
	ix.Rebuild()
	return ix
}

// pull recomputes one internal node from its children.
func (ix *HostIndex) pull(i int) {
	l, r := 2*i, 2*i+1
	f := ix.free[l]
	if ix.free[r] > f {
		f = ix.free[r]
	}
	s := ix.score[l]
	if ix.score[r] < s {
		s = ix.score[r]
	}
	ix.free[i], ix.score[i] = f, s
}

// Len returns the number of hosts indexed.
func (ix *HostIndex) Len() int { return ix.n }

// Capacity returns host i's admission capacity.
func (ix *HostIndex) Capacity(i int) int { return int(ix.capacity[i]) }

// Free returns host i's current free capacity.
func (ix *HostIndex) Free(i int) int { return int(ix.free[ix.size+i]) }

// Update sets host i's committed occupancy and policy score, rewriting the
// leaf's root path.
func (ix *HostIndex) Update(i, committed int, score float64) {
	leaf := ix.size + i
	ix.free[leaf] = ix.capacity[i] - int32(committed)
	ix.score[leaf] = score
	for leaf /= 2; leaf >= 1; leaf /= 2 {
		ix.pull(leaf)
	}
}

// SetLeaf sets host i's committed occupancy and policy score in its leaf
// only. Queries read stale aggregates until the next Rebuild.
func (ix *HostIndex) SetLeaf(i, committed int, score float64) {
	leaf := ix.size + i
	ix.free[leaf] = ix.capacity[i] - int32(committed)
	ix.score[leaf] = score
}

// Rebuild recomputes every internal node from the leaves, bottom-up. After
// SetLeaf on any set of hosts it leaves the tree exactly as one Update per
// written leaf would.
func (ix *HostIndex) Rebuild() {
	for i := ix.size - 1; i >= 1; i-- {
		ix.pull(i)
	}
}

// FirstFit returns the lowest-indexed host with free >= v, or -1.
func (ix *HostIndex) FirstFit(v int) int {
	need := int32(v)
	if ix.free[1] < need {
		return -1
	}
	i := 1
	for i < ix.size {
		if ix.free[2*i] >= need {
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	return i - ix.size
}

// BestScore returns the fitting host with the smallest score (ties to the
// lowest host ID), or -1 when nothing fits. Matches the linear policies'
// strict `score < best` comparison exactly.
func (ix *HostIndex) BestScore(v int) int {
	need := int32(v)
	best := math.Inf(1)
	bestIdx := -1
	// Explicit stack, left child pushed last so it pops first: lower host
	// IDs are examined before equal-scoring higher ones.
	var stack [64]int
	sp := 0
	if ix.free[1] >= need {
		stack[sp] = 1
		sp++
	}
	for sp > 0 {
		sp--
		i := stack[sp]
		if ix.free[i] < need || ix.score[i] >= best {
			continue
		}
		if i >= ix.size {
			best, bestIdx = ix.score[i], i-ix.size
			continue
		}
		stack[sp] = 2*i + 1
		stack[sp+1] = 2 * i
		sp += 2
	}
	return bestIdx
}

// IndexedPolicy is a Policy that can place through a HostIndex instead of a
// linear snapshot scan. Score must be a pure function of the snapshot row —
// the fleet recomputes it for a host whenever that host's commitments or
// telemetry change and stores it in the index, so PlaceIndexed over fresh
// scores must agree with Place over a fresh snapshot (pinned by the
// differential test).
type IndexedPolicy interface {
	Policy
	// Score returns the value the index minimises for this host; lower is
	// better. Policies that don't rank (first-fit) return 0.
	Score(h HostInfo) float64
	// PlaceIndexed picks a fitting host from the index, or -1.
	PlaceIndexed(ix *HostIndex, vcpus int) int
}

func (FirstFit) Score(HostInfo) float64 { return 0 }

func (FirstFit) PlaceIndexed(ix *HostIndex, vcpus int) int { return ix.FirstFit(vcpus) }

func (LeastLoaded) Score(h HostInfo) float64 { return float64(h.Committed) }

func (LeastLoaded) PlaceIndexed(ix *HostIndex, vcpus int) int { return ix.BestScore(vcpus) }

func (StealAware) Score(h HostInfo) float64 {
	return h.StealRate + 0.1*float64(h.Committed)/float64(h.Capacity)
}

func (StealAware) PlaceIndexed(ix *HostIndex, vcpus int) int { return ix.BestScore(vcpus) }
