package workload

import (
	"fmt"

	"vsched/internal/guest"
	"vsched/internal/sim"
)

// SyncKind is the synchronisation structure of a parallel kernel.
type SyncKind int

const (
	// SyncNone: embarrassingly parallel (blackscholes, swaptions).
	SyncNone SyncKind = iota
	// SyncBarrier: iteration barrier, blocking wait (most Splash kernels).
	SyncBarrier
	// SyncSpinBarrier: user-level spinning barrier (streamcluster, volrend)
	// — the LHP-prone pattern the paper calls out in §5.6.
	SyncSpinBarrier
	// SyncLock: shared lock, critical section per iteration (canneal,
	// fluidanimate, radiosity).
	SyncLock
	// SyncSpinLock: user-level spinlock variant.
	SyncSpinLock
)

// ParallelSpec parameterises a data-parallel kernel.
type ParallelSpec struct {
	Name           string
	DefaultThreads int
	// IterWork is per-thread nominal CPU per iteration.
	IterWork sim.Duration
	// Imbalance is the relative spread of per-thread iteration work.
	Imbalance float64
	Sync      SyncKind
	// CritFrac is the fraction of IterWork inside the critical section
	// (lock kinds).
	CritFrac float64
	// Iterations per thread; 0 = run until stopped (throughput mode).
	Iterations int
	// FootprintMB is each thread's cache working set.
	FootprintMB float64
	// SerialFrac adds an Amdahl serial section to barrier kernels: after
	// each parallel round, thread 0 runs SerialFrac*IterWork*threads alone
	// while the others wait at a second barrier. During these phases the
	// system is underloaded — the situation §5.5 credits for ivh's gains
	// even at full thread counts.
	SerialFrac float64
}

// Parallel is a running parallel kernel.
type Parallel struct {
	env     Env
	spec    ParallelSpec
	threads int

	barrier *guest.Barrier
	mutex   *guest.Mutex

	ops     uint64 // completed thread-iterations
	tasks   []*guest.Task
	alive   int
	started bool
	stopped bool

	// FinishedAt is set when the last thread exits (fixed-size runs).
	FinishedAt sim.Time
}

// NewParallel builds a kernel in env; env.Threads overrides the default.
func NewParallel(env Env, spec ParallelSpec) *Parallel {
	th := spec.DefaultThreads
	if env.Threads > 0 {
		th = env.Threads
	}
	if th <= 0 && env.VM != nil {
		th = env.VM.NumVCPUs() // suite convention: one thread per vCPU
	}
	if th <= 0 {
		th = 1
	}
	p := &Parallel{env: env, spec: spec, threads: th}
	switch spec.Sync {
	case SyncBarrier:
		p.barrier = guest.NewBarrier(th)
	case SyncSpinBarrier:
		p.barrier = guest.NewBarrier(th)
		p.barrier.Spin = true
	case SyncLock, SyncSpinLock:
		p.mutex = &guest.Mutex{}
	}
	return p
}

// Ops implements Instance.
func (p *Parallel) Ops() uint64 { return p.ops }

// Done reports whether every thread has exited (a fixed-size run finished,
// or an open-ended one was stopped).
func (p *Parallel) Done() bool { return p.started && p.alive == 0 }

// Threads returns the actual thread count.
func (p *Parallel) Threads() int { return p.threads }

// Tasks returns the kernel's spawned tasks (experiments inspect placement
// and queueing).
func (p *Parallel) Tasks() []*guest.Task { return p.tasks }

// Stop makes open-ended threads exit at their next iteration boundary.
func (p *Parallel) Stop() { p.stopped = true }

// Start implements Instance.
func (p *Parallel) Start() {
	if p.started {
		return
	}
	p.started = true
	p.alive = p.threads
	for i := 0; i < p.threads; i++ {
		opts := p.env.groupOpt()
		if p.spec.FootprintMB > 0 {
			opts = append(opts, guest.WithFootprint(p.spec.FootprintMB))
		}
		tk := p.env.VM.Spawn(fmt.Sprintf("%s/t%d", p.spec.Name, i),
			p.threadBehavior(i), opts...)
		p.tasks = append(p.tasks, tk)
		tk.OnExit = func(now sim.Time) {
			p.alive--
			if p.alive == 0 {
				p.FinishedAt = now
			}
		}
	}
}

func (p *Parallel) threadBehavior(idx int) guest.Behavior {
	eng := p.env.VM.Engine()
	iter := 0
	phase := 0
	s := p.spec
	serial := s.SerialFrac > 0 && p.threads > 1 &&
		(s.Sync == SyncBarrier || s.Sync == SyncSpinBarrier)
	owner := idx == 0
	var work float64
	return func(now sim.Time) guest.Segment {
		if phase == 0 {
			// New iteration.
			if (s.Iterations > 0 && iter >= s.Iterations) || p.stopped {
				return guest.Exit()
			}
			iter++
			jit := 1.0
			if s.Imbalance > 0 {
				jit = 1 + float64(s.Imbalance*(2*float64(eng.Rand().Float64())-1))
			}
			work = p.env.cycles(sim.Duration(float64(s.IterWork) * jit))
		}
		switch s.Sync {
		case SyncNone:
			p.ops++
			return guest.Compute(work)

		case SyncBarrier, SyncSpinBarrier:
			// Owner:      compute | barrier | serial-compute | barrier
			// Non-owner:  compute | barrier |                  barrier
			switch phase {
			case 0:
				phase = 1
				return guest.Compute(work)
			case 1:
				if serial {
					phase = 2
				} else {
					phase = 0
					p.ops++
				}
				return guest.BarrierWait(p.barrier)
			case 2:
				phase = 3
				if owner {
					// Amdahl serial section while everyone else waits at
					// the closing barrier.
					return guest.Compute(s.SerialFrac * work * float64(p.threads))
				}
				return guest.BarrierWait(p.barrier)
			default:
				phase = 0
				p.ops++
				if owner {
					return guest.BarrierWait(p.barrier)
				}
				// Non-owners have already passed the closing barrier (it
				// released when the owner arrived); begin the next
				// iteration immediately.
				if (s.Iterations > 0 && iter >= s.Iterations) || p.stopped {
					return guest.Exit()
				}
				iter++
				jit := 1.0
				if s.Imbalance > 0 {
					jit = 1 + float64(s.Imbalance*(2*float64(eng.Rand().Float64())-1))
				}
				work = p.env.cycles(sim.Duration(float64(s.IterWork) * jit))
				phase = 1
				return guest.Compute(work)
			}

		case SyncLock, SyncSpinLock:
			crit := float64(work * s.CritFrac)
			par := work - crit
			switch phase {
			case 0:
				phase = 1
				return guest.Compute(par)
			case 1:
				phase = 2
				if s.Sync == SyncSpinLock {
					return guest.AcquireSpin(p.mutex)
				}
				return guest.Acquire(p.mutex)
			case 2:
				phase = 3
				return guest.Compute(crit)
			default:
				phase = 0
				p.ops++
				return guest.Release(p.mutex)
			}
		}
		return guest.Exit()
	}
}

// PipelineSpec parameterises a producer→workers→consumer pipeline (dedup,
// ferret, x264, pbzip2).
type PipelineSpec struct {
	Name           string
	DefaultThreads int          // worker-stage parallelism
	ReadIO         sim.Duration // reader sleep per item (disk)
	ReadCPU        sim.Duration
	WorkCPU        sim.Duration // per-item worker compute
	WriteCPU       sim.Duration
	WriteIO        sim.Duration
	QueueCap       int // backpressure bound on in-flight items
	// FootprintMB is each worker's cache working set.
	FootprintMB float64
}

// Pipeline is a running pipeline workload.
type Pipeline struct {
	env     Env
	spec    PipelineSpec
	threads int

	workSem  *guest.Semaphore // items ready for workers
	writeSem *guest.Semaphore // items ready for the writer
	capSem   *guest.Semaphore // backpressure tokens

	ops     uint64 // items written
	started bool
	stopped bool
}

// NewPipeline builds a pipeline workload.
func NewPipeline(env Env, spec PipelineSpec) *Pipeline {
	th := spec.DefaultThreads
	if env.Threads > 0 {
		th = env.Threads
	}
	if th <= 0 && env.VM != nil {
		// Worker-stage parallelism: leave room for the reader and writer.
		th = env.VM.NumVCPUs() - 2
	}
	if th <= 0 {
		th = 1
	}
	cap := spec.QueueCap
	if cap <= 0 {
		cap = 4 * th
	}
	return &Pipeline{
		env:      env,
		spec:     spec,
		threads:  th,
		workSem:  guest.NewSemaphore(0),
		writeSem: guest.NewSemaphore(0),
		capSem:   guest.NewSemaphore(cap),
	}
}

// Ops implements Instance.
func (p *Pipeline) Ops() uint64 { return p.ops }

// Stop halts the reader; in-flight items drain.
func (p *Pipeline) Stop() { p.stopped = true }

// Start implements Instance.
func (p *Pipeline) Start() {
	if p.started {
		return
	}
	p.started = true
	vm := p.env.VM
	opts := p.env.groupOpt()

	// Reader.
	readPhase := 0
	vm.Spawn(p.spec.Name+"/read", func(now sim.Time) guest.Segment {
		switch readPhase {
		case 0:
			if p.stopped {
				return guest.Exit()
			}
			readPhase = 1
			return guest.SemWait(p.capSem)
		case 1:
			readPhase = 2
			return guest.Sleep(p.spec.ReadIO)
		case 2:
			readPhase = 3
			return guest.Compute(p.env.cycles(p.spec.ReadCPU))
		default:
			readPhase = 0
			return guest.SemPost(p.workSem)
		}
	}, opts...)

	// Workers.
	wopts := opts
	if p.spec.FootprintMB > 0 {
		wopts = append(append([]guest.TaskOpt(nil), opts...), guest.WithFootprint(p.spec.FootprintMB))
	}
	for i := 0; i < p.threads; i++ {
		phase := 0
		vm.Spawn(fmt.Sprintf("%s/wk%d", p.spec.Name, i), func(now sim.Time) guest.Segment {
			switch phase {
			case 0:
				phase = 1
				return guest.SemWait(p.workSem)
			case 1:
				phase = 2
				return guest.Compute(p.env.cycles(p.spec.WorkCPU))
			default:
				phase = 0
				return guest.SemPost(p.writeSem)
			}
		}, wopts...)
	}

	// Writer.
	wrPhase := 0
	vm.Spawn(p.spec.Name+"/write", func(now sim.Time) guest.Segment {
		switch wrPhase {
		case 0:
			wrPhase = 1
			return guest.SemWait(p.writeSem)
		case 1:
			wrPhase = 2
			return guest.Compute(p.env.cycles(p.spec.WriteCPU))
		case 2:
			wrPhase = 3
			if p.spec.WriteIO > 0 {
				return guest.Sleep(p.spec.WriteIO)
			}
			fallthrough
		default:
			wrPhase = 0
			p.ops++
			return guest.SemPost(p.capSem)
		}
	}, opts...)
}
