package guest

// Belief is the topology the guest scheduler believes, expressed as group
// ids per vCPU. vtop rebuilds it from probed distances; the default is what
// an unmodified hypervisor exposes: symmetric CPUs, one flat LLC domain, no
// SMT siblings, no stacking (UMA illusion).
type Belief struct {
	// CoreOf[i] identifies the physical core group of vCPU i (SMT siblings
	// share a value).
	CoreOf []int
	// SocketOf[i] identifies the LLC/socket group of vCPU i.
	SocketOf []int
	// StackOf[i] identifies the stacking group of vCPU i: vCPUs time-sharing
	// one hardware thread share a value.
	StackOf []int
}

// DefaultBelief returns the inaccurate default abstraction for n vCPUs:
// every vCPU its own core and stack group, all in one socket.
func DefaultBelief(n int) Belief {
	b := Belief{CoreOf: make([]int, n), SocketOf: make([]int, n), StackOf: make([]int, n)}
	for i := 0; i < n; i++ {
		b.CoreOf[i] = i
		b.StackOf[i] = i
	}
	return b
}

// Clone deep-copies the belief.
func (b Belief) Clone() Belief {
	return Belief{
		CoreOf:   append([]int(nil), b.CoreOf...),
		SocketOf: append([]int(nil), b.SocketOf...),
		StackOf:  append([]int(nil), b.StackOf...),
	}
}

// SameCore reports whether the belief places i and j on one core (SMT).
func (b Belief) SameCore(i, j int) bool { return b.CoreOf[i] == b.CoreOf[j] }

// SameSocket reports whether the belief places i and j in one LLC domain.
func (b Belief) SameSocket(i, j int) bool { return b.SocketOf[i] == b.SocketOf[j] }

// SameStack reports whether the belief stacks i and j on one hardware
// thread.
func (b Belief) SameStack(i, j int) bool { return b.StackOf[i] == b.StackOf[j] }

// SMTSiblings returns the vCPUs sharing i's core group, excluding i.
func (b Belief) SMTSiblings(i int) []int {
	var out []int
	for j := range b.CoreOf {
		if j != i && b.CoreOf[j] == b.CoreOf[i] {
			out = append(out, j)
		}
	}
	return out
}

// StackGroups returns the stacking groups with more than one member.
func (b Belief) StackGroups() [][]int {
	var out [][]int
	for _, members := range groups(b.StackOf) {
		if len(members) > 1 {
			out = append(out, members)
		}
	}
	return out
}

// Sockets returns the vCPU ids grouped by socket, ordered by first member.
func (b Belief) Sockets() [][]int { return groups(b.SocketOf) }

// groups partitions the vCPU ids 0..len(of)-1 by their group id of[i],
// each group in ascending id order and the groups ordered by first member.
func groups(of []int) [][]int {
	index := map[int]int{}
	var out [][]int
	for i, g := range of {
		k, ok := index[g]
		if !ok {
			k = len(out)
			index[g] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
	}
	return out
}
