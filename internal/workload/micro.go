package workload

import (
	"fmt"

	"vsched/internal/guest"
	"vsched/internal/sim"
)

// Loop is a closed-loop micro-benchmark: each of its threads runs the same
// steps back to back, forever, and an op is one completion of step 0.
// sysbench, matmul and fio are loops that differ only in their steps.
type Loop struct {
	env     Env
	name    string
	steps   []guest.Segment
	threads int
	ops     uint64
	tasks   []*guest.Task
	started bool
}

// The fixed per-operation costs of the micro-benchmarks.
const (
	sysbenchEvent = 1 * sim.Millisecond  // one sysbench event
	fioIOLat      = 64 * sim.Microsecond // one fio IO
	fioCPU        = 5 * sim.Microsecond  // one fio completion burst
	matmulChunk   = 5 * sim.Millisecond  // one matmul block
)

func newLoop(env Env, name string, threads int, steps ...guest.Segment) *Loop {
	if env.Threads > 0 {
		threads = env.Threads
	}
	if threads <= 0 {
		threads = 1
	}
	return &Loop{env: env, name: name, steps: steps, threads: threads}
}

// NewSysbench builds sysbench-cpu: threads computing 1ms events back to
// back; throughput is events per second.
func NewSysbench(env Env, threads int) *Loop {
	return newLoop(env, "sysbench", threads, guest.Compute(env.cycles(sysbenchEvent)))
}

// NewMatmul builds a matmul-like workload: pure dense compute in 5ms blocks
// (the CPU-intensive half of Fig. 12's mixed workloads).
func NewMatmul(env Env, threads int) *Loop {
	return newLoop(env, "matmul", threads, guest.Compute(env.cycles(matmulChunk)))
}

// NewFio builds a fio-like workload: each thread issues a 64us IO (a sleep),
// then a 5us completion burst. Throughput is IOPS.
func NewFio(env Env, threads int) *Loop {
	return newLoop(env, "fio", threads, guest.Sleep(fioIOLat), guest.Compute(env.cycles(fioCPU)))
}

// Ops implements Instance.
func (l *Loop) Ops() uint64 { return l.ops }

// Tasks returns the spawned worker tasks (experiments inspect placement).
func (l *Loop) Tasks() []*guest.Task { return l.tasks }

var _ Instance = (*Loop)(nil)

// Start implements Instance.
func (l *Loop) Start() {
	if l.started {
		return
	}
	l.started = true
	for i := 0; i < l.threads; i++ {
		step := -1 // the step in progress
		tk := l.env.VM.Spawn(fmt.Sprintf("%s/t%d", l.name, i), func(sim.Time) guest.Segment {
			if step == 0 {
				l.ops++
			}
			step = (step + 1) % len(l.steps)
			return l.steps[step]
		}, l.env.groupOpt()...)
		l.tasks = append(l.tasks, tk)
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

// Ops implements Instance.
func (h *Hackbench) Ops() uint64 { return h.ops }

// Done reports whether every sender and receiver has exited.
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
		onExit := func(sim.Time) { h.alive-- }
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
