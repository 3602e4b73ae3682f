package guest

// Synchronisation primitives for guest tasks. These manipulate task states
// directly through the VM — they are the simulation equivalents of futexes
// (Mutex/Cond/Semaphore), pthread barriers, and user-level spinlocks.

// syncState is the state of every synchronisation primitive: each of Mutex,
// Cond, Semaphore and Barrier embeds one and uses its own subset of the
// fields. A Segment names its primitive by a pointer to this struct, so one
// pointer field serves all four kinds and the segment stays small enough
// to be returned in registers.
type syncState struct {
	owner    *Task   // Mutex: holder, or nil
	waiters  []*Task // Mutex, Cond, Semaphore: blocked waiters, FIFO
	spinners []*Task // Mutex: busy-waiting contenders (AcquireSpin), FIFO
	count    int     // Semaphore: counter
	parties  int     // Barrier: size
	arrived  []*Task // Barrier: tasks waiting for the current generation
	// Spin, on a Barrier, makes waiting tasks burn CPU (user-level spin
	// barrier — the pattern behind the paper's streamcluster and volrend
	// anomalies) instead of blocking. It means nothing on the other
	// primitives.
	Spin bool
}

// Mutex is a blocking lock with FIFO waiters. Tasks acquire it with
// Acquire/AcquireSpin segments.
type Mutex struct{ syncState }

// Locked reports whether the mutex is held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Owner returns the holding task, or nil.
func (m *Mutex) Owner() *Task { return m.owner }

// Cond is a condition/event channel: tasks wait, others signal or broadcast.
type Cond struct{ syncState }

// Waiters returns the number of blocked waiters.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Semaphore is a counting semaphore; used as the ready-queue primitive for
// request-processing workloads.
type Semaphore struct{ syncState }

// NewSemaphore returns a semaphore with an initial count.
func NewSemaphore(n int) *Semaphore { return &Semaphore{syncState{count: n}} }

// Count returns the current counter value (not counting waiters).
func (s *Semaphore) Count() int { return s.count }

// Waiters returns the number of blocked waiters.
func (s *Semaphore) Waiters() int { return len(s.waiters) }

// popFront removes and returns the head of a FIFO task queue. It shifts the
// rest down rather than reslicing past the head, so the queue keeps its
// backing array instead of leaking capacity at the front.
func popFront(q *[]*Task) *Task {
	s := *q
	head := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	*q = s[:n]
	return head
}

// Barrier blocks parties until all have arrived, then releases the
// generation together. Its Spin field controls whether waiting tasks burn
// CPU or block.
type Barrier struct{ syncState }

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("guest: barrier needs at least one party")
	}
	return &Barrier{syncState{parties: n}}
}

// Arrived returns how many tasks are currently waiting at the barrier.
func (b *Barrier) Arrived() int { return len(b.arrived) }

// Parties returns the barrier size.
func (b *Barrier) Parties() int { return b.parties }
