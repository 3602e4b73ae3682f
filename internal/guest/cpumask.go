package guest

import "math/bits"

// cpumask is a set of vCPU ids, 64 to a word — the guest's analogue of
// Linux's struct cpumask. The scheduler keeps its idle and overloaded vCPU
// sets, the believed socket and core groups and each cgroup's allowed set
// in this form, so a wakeup finds its target with a few word operations
// instead of a walk over every vCPU.
type cpumask []uint64

// newCPUMask returns an empty mask for n vCPUs.
func newCPUMask(n int) cpumask { return make(cpumask, (n+63)/64) }

// clone returns a copy of m.
func (m cpumask) clone() cpumask { return append(cpumask(nil), m...) }

// has reports whether i is in the mask.
func (m cpumask) has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// set adds i to the mask when on holds and removes it otherwise.
func (m cpumask) set(i int, on bool) {
	if on {
		m[i>>6] |= 1 << (i & 63)
	} else {
		m[i>>6] &^= 1 << (i & 63)
	}
}

// subsetOf reports whether every member of m is in o.
func (m cpumask) subsetOf(o cpumask) bool {
	for w, x := range m {
		if x&^o[w] != 0 {
			return false
		}
	}
	return true
}

// next returns the lowest id >= from in m, or -1 when there is none.
func (m cpumask) next(from int) int { return nextAnd(from, m, m, m) }

// nextAnd returns the lowest id >= from that is in all of a, b and c, or -1
// when there is none. Walking a set with it visits ids in ascending order,
// as a loop over the vCPUs that tests membership would.
func nextAnd(from int, a, b, c cpumask) int {
	w := from >> 6
	if w >= len(a) {
		return -1
	}
	x := a[w] & b[w] & c[w] & (^uint64(0) << (from & 63))
	for x == 0 {
		if w++; w == len(a) {
			return -1
		}
		x = a[w] & b[w] & c[w]
	}
	return w<<6 + bits.TrailingZeros64(x)
}

// groupMasks builds one mask per group of ids and, for each vCPU, the mask
// of the group holding it. The group masks share one backing array.
func groupMasks(groups [][]int, n int) (byVCPU []cpumask) {
	words := (n + 63) / 64
	backing := make([]uint64, len(groups)*words)
	byVCPU = make([]cpumask, n)
	for k, ids := range groups {
		m := cpumask(backing[k*words : (k+1)*words : (k+1)*words])
		for _, id := range ids {
			m.set(id, true)
			byVCPU[id] = m
		}
	}
	return byVCPU
}
