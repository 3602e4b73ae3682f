package workload

import (
	"fmt"

	"vsched/internal/guest"
	"vsched/internal/sim"
)

// Sysbench is the CPU-bound micro-benchmark: N threads computing 1ms events
// back to back; throughput is events per second.
type Sysbench struct {
	env     Env
	threads int
	ops     uint64
	tasks   []*guest.Task
	started bool
	stopped bool
}

// The fixed per-operation costs of the micro-benchmarks.
const (
	sysbenchEvent = 1 * sim.Millisecond  // one sysbench event
	fioIOLat      = 64 * sim.Microsecond // one fio IO
	fioCPU        = 5 * sim.Microsecond  // one fio completion burst
	matmulChunk   = 5 * sim.Millisecond  // one matmul block
)

// NewSysbench builds a sysbench-cpu workload.
func NewSysbench(env Env, threads int) *Sysbench {
	if env.Threads > 0 {
		threads = env.Threads
	}
	if threads <= 0 {
		threads = 1
	}
	return &Sysbench{env: env, threads: threads}
}

// Name implements Instance.
func (s *Sysbench) Name() string { return "sysbench" }

// Ops implements Instance.
func (s *Sysbench) Ops() uint64 { return s.ops }

// Done implements Instance.
func (s *Sysbench) Done() bool { return false }

// Stop ends the threads at the next event boundary.
func (s *Sysbench) Stop() { s.stopped = true }

// Tasks returns the spawned worker tasks (experiments inspect placement).
func (s *Sysbench) Tasks() []*guest.Task { return s.tasks }

var _ Instance = (*Sysbench)(nil)

// Start implements Instance.
func (s *Sysbench) Start() {
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.threads; i++ {
		counted := false
		tk := s.env.VM.Spawn(fmt.Sprintf("sysbench/t%d", i), func(now sim.Time) guest.Segment {
			if counted {
				s.ops++
			}
			if s.stopped {
				return guest.Exit()
			}
			counted = true
			return guest.Compute(s.env.cycles(sysbenchEvent))
		}, s.env.groupOpt()...)
		s.tasks = append(s.tasks, tk)
	}
}

// Hackbench: G groups of S senders and R receivers exchanging M messages
// through semaphores — the scheduler stress test with heavy wakeup traffic.
type Hackbench struct {
	env      Env
	groups   int
	pairSize int
	messages int
	ops      uint64
	alive    int
	started  bool

	FinishedAt sim.Time
}

// NewHackbench builds a hackbench run: groups × (pairSize senders +
// pairSize receivers), messages per sender.
func NewHackbench(env Env, groups, pairSize, messages int) *Hackbench {
	if groups <= 0 {
		groups = 2
	}
	if pairSize <= 0 {
		pairSize = 4
	}
	if messages <= 0 {
		messages = 100
	}
	return &Hackbench{env: env, groups: groups, pairSize: pairSize, messages: messages}
}

// Name implements Instance.
func (h *Hackbench) Name() string { return "hackbench" }

// Ops implements Instance.
func (h *Hackbench) Ops() uint64 { return h.ops }

// Done implements Instance.
func (h *Hackbench) Done() bool { return h.started && h.alive == 0 }

// Start implements Instance.
func (h *Hackbench) Start() {
	if h.started {
		return
	}
	h.started = true
	msgWork := h.env.cycles(20 * sim.Microsecond)
	for g := 0; g < h.groups; g++ {
		// Per-receiver bounded channels, like hackbench's sockets: the small
		// buffer makes both sides block constantly, and the pairwise wake
		// graph is what lets wake affinity consolidate a group in one cache
		// domain.
		data := make([]*guest.Semaphore, h.pairSize)
		space := make([]*guest.Semaphore, h.pairSize)
		for i := range data {
			data[i] = guest.NewSemaphore(0)
			space[i] = guest.NewSemaphore(2)
		}
		onExit := func(now sim.Time) {
			h.alive--
			if h.alive == 0 {
				h.FinishedAt = now
			}
		}
		// Receivers: each drains its own channel.
		for r := 0; r < h.pairSize; r++ {
			r := r
			phase := 0
			got := 0
			need := h.messages * h.pairSize // every sender sends to every receiver
			h.alive++
			tk := h.env.VM.Spawn(fmt.Sprintf("hack/g%d/r%d", g, r), func(now sim.Time) guest.Segment {
				switch phase {
				case 0:
					if got >= need {
						return guest.Exit()
					}
					phase = 1
					return guest.SemWait(data[r])
				case 1:
					phase = 2
					got++
					h.ops++
					return guest.Compute(msgWork)
				default:
					phase = 0
					return guest.SemPost(space[r])
				}
			}, h.env.groupOpt()...)
			tk.OnExit = onExit
		}
		// Senders: round-robin over the group's receivers.
		for sn := 0; sn < h.pairSize; sn++ {
			phase := 0
			sent := 0
			target := sn % h.pairSize
			h.alive++
			tk := h.env.VM.Spawn(fmt.Sprintf("hack/g%d/s%d", g, sn), func(now sim.Time) guest.Segment {
				switch phase {
				case 0:
					if sent >= h.messages*h.pairSize {
						return guest.Exit()
					}
					phase = 1
					return guest.SemWait(space[target])
				case 1:
					phase = 2
					return guest.Compute(msgWork)
				default:
					phase = 0
					sent++
					out := guest.SemPost(data[target])
					target = (target + 1) % h.pairSize
					return out
				}
			}, h.env.groupOpt()...)
			tk.OnExit = onExit
		}
	}
}

// Fio is the I/O-heavy micro-benchmark: threads issue an IO (sleep), then a
// tiny completion-processing burst. Throughput is IOPS.
type Fio struct {
	env     Env
	threads int
	ops     uint64
	started bool
	stopped bool
}

// NewFio builds a fio-like workload (64us IO latency, 5us CPU).
func NewFio(env Env, threads int) *Fio {
	if env.Threads > 0 {
		threads = env.Threads
	}
	if threads <= 0 {
		threads = 1
	}
	return &Fio{env: env, threads: threads}
}

// Name implements Instance.
func (f *Fio) Name() string { return "fio" }

// Ops implements Instance.
func (f *Fio) Ops() uint64 { return f.ops }

// Done implements Instance.
func (f *Fio) Done() bool { return false }

// Stop ends the threads.
func (f *Fio) Stop() { f.stopped = true }

// Start implements Instance.
func (f *Fio) Start() {
	if f.started {
		return
	}
	f.started = true
	for i := 0; i < f.threads; i++ {
		phase := 0
		f.env.VM.Spawn(fmt.Sprintf("fio/t%d", i), func(now sim.Time) guest.Segment {
			if f.stopped {
				return guest.Exit()
			}
			switch phase {
			case 0:
				phase = 1
				return guest.Sleep(fioIOLat)
			default:
				phase = 0
				f.ops++
				return guest.Compute(f.env.cycles(fioCPU))
			}
		}, f.env.groupOpt()...)
	}
}

// Matmul is pure dense compute split into chunks across threads (the
// CPU-intensive half of Fig. 12's mixed workloads).
type Matmul struct {
	env     Env
	threads int
	ops     uint64
	started bool
	stopped bool
}

// NewMatmul builds a matmul-like workload of 5ms blocks.
func NewMatmul(env Env, threads int) *Matmul {
	if env.Threads > 0 {
		threads = env.Threads
	}
	if threads <= 0 {
		threads = 1
	}
	return &Matmul{env: env, threads: threads}
}

// Name implements Instance.
func (m *Matmul) Name() string { return "matmul" }

// Ops implements Instance.
func (m *Matmul) Ops() uint64 { return m.ops }

// Done implements Instance.
func (m *Matmul) Done() bool { return false }

// Stop ends the threads.
func (m *Matmul) Stop() { m.stopped = true }

// Start implements Instance.
func (m *Matmul) Start() {
	if m.started {
		return
	}
	m.started = true
	for i := 0; i < m.threads; i++ {
		counted := false
		m.env.VM.Spawn(fmt.Sprintf("matmul/t%d", i), func(now sim.Time) guest.Segment {
			if counted {
				m.ops++
			}
			if m.stopped {
				return guest.Exit()
			}
			counted = true
			return guest.Compute(m.env.cycles(matmulChunk))
		}, m.env.groupOpt()...)
	}
}
