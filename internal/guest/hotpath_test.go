package guest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"vsched/internal/sim"
)

// TestDecayMemoMatchesExp2 pins the decay memo to the formula it replaces,
// bit for bit: hits, misses, evictions of a colliding key and the extremes
// must all return exactly what math.Exp2 does.
func TestDecayMemoMatchesExp2(t *testing.T) {
	var m decayMemo
	m.reset()
	check := func(e sim.Duration) {
		t.Helper()
		want := math.Exp2(-float64(e) / float64(peltTau))
		if got := m.factor(e); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("factor(%d) = %v (%#x), want %v (%#x)",
				int64(e), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	var es []sim.Duration
	// The tick period and its multiples: the intervals that recur most.
	for k := 0; k <= 64; k++ {
		es = append(es, sim.Duration(k)*sim.Millisecond)
	}
	// Random intervals from a nanosecond to seconds.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		es = append(es, sim.Duration(1+rng.Int63n(int64(2*sim.Second))))
	}
	// Huge and degenerate intervals: the factor underflows to 0 or exceeds 1.
	es = append(es, 100*sim.Second, 3600*sim.Second, 1<<62, math.MaxInt64, -sim.Millisecond, 1)
	for range 2 { // the second pass hits wherever the first left a key
		for _, e := range es {
			check(e)
		}
	}

	// Keys sharing a slot evict each other; alternating them must never
	// return the other key's factor.
	first := map[int]sim.Duration{}
	pairs := 0
	for e := sim.Duration(1); pairs < 50; e += 997 {
		s := decaySlot(e)
		prev, ok := first[s]
		if !ok {
			first[s] = e
			continue
		}
		for range 3 {
			check(prev)
			check(e)
		}
		first[s] = e
		pairs++
	}
}

// TestSetTopologyCopiesBelief: the VM derives its balancing domains from
// the belief it is given, so a caller mutating its belief afterwards must
// change neither Topology() nor balancing.
func TestSetTopologyCopiesBelief(t *testing.T) {
	eng, _, vm := testSetup(t, 1, 2, 2, 4)
	b := DefaultBelief(4)
	b.CoreOf = []int{0, 0, 1, 1} // matches the physical SMT pairs
	vm.SetTopology(b)
	want := b.Clone()
	// Scramble every slice the caller still holds: with the mutation
	// visible, no core would have two members and nothing would unstack.
	for i := range b.CoreOf {
		b.CoreOf[i], b.SocketOf[i], b.StackOf[i] = i, i, 0
	}
	if got := vm.Topology(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Topology() = %+v after the caller mutated its belief, want %+v", got, want)
	}
	// Two hogs stacked on one believed core must still be separated.
	a := vm.Spawn("a", func(sim.Time) Segment { return ComputeForever() }, StartOn(0))
	c := vm.Spawn("c", func(sim.Time) Segment { return ComputeForever() }, StartOn(1))
	eng.RunFor(500 * sim.Millisecond)
	if ca, cc := want.CoreOf[a.CPU().ID()], want.CoreOf[c.CPU().ID()]; ca == cc {
		t.Fatalf("SMT balance should separate two hogs, both on core %d", ca)
	}
}

// TestPopFrontKeepsCapacity: a FIFO waiter queue cycling through pushes and
// pops keeps one backing array instead of leaking it from the front.
func TestPopFrontKeepsCapacity(t *testing.T) {
	tasks := []*Task{{id: 1}, {id: 2}, {id: 3}}
	q := make([]*Task, 0, 4)
	q = append(q, tasks...)
	base := &q[:1][0]
	for i := 0; i < 100; i++ {
		head := popFront(&q)
		if head != tasks[i%3] {
			t.Fatalf("pop %d returned task %d, want %d", i, head.id, tasks[i%3].id)
		}
		if len(q) != 2 || q[:3][2] != nil {
			t.Fatalf("pop %d: len %d, vacated slot %v", i, len(q), q[:3][2])
		}
		q = append(q, head)
		if &q[0] != base {
			t.Fatalf("pop %d: queue moved to a new backing array", i)
		}
	}
}

// TestSegmentFitsRegisters: a Behavior returns its Segment on every task
// step. The Go compiler keeps a struct of at most four fields and 32 bytes
// in registers, from the return straight into advance's switch. At eight
// words the result went through memory instead: the caller spilled it and
// copied it back with 16-byte loads across two 8-byte stores, which stall
// store forwarding — in fig13 that one copy was over half of advance's own
// time. Keep the segment register-sized.
func TestSegmentFitsRegisters(t *testing.T) {
	if n := unsafe.Sizeof(Segment{}); n > 32 {
		t.Fatalf("Segment is %d bytes, want <= 32 so it is returned in registers", n)
	}
	if n := reflect.TypeOf(Segment{}).NumField(); n > 4 {
		t.Fatalf("Segment has %d fields, want <= 4 so it is returned in registers", n)
	}
}
