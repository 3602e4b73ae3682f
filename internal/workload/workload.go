// Package workload provides synthetic workload generators with the
// scheduling-relevant structure of the paper's benchmark suite: Tailbench's
// small latency-sensitive request loops, PARSEC's and Splash-2x's barrier-,
// lock- and pipeline-synchronised parallel kernels, an Nginx-like server,
// Pbzip2-style pipelines, and the micro-benchmarks (sysbench, hackbench,
// fio, matmul). Generators drive the guest scheduler exactly where the real
// programs do — task sizes, blocking patterns and synchronisation topology —
// while the numerics are replaced by calibrated compute segments.
package workload

import (
	"vsched/internal/guest"
	"vsched/internal/metrics"
	"vsched/internal/sim"
)

// Env is everything a workload needs to instantiate inside a VM.
type Env struct {
	VM *guest.VM
	// Group receives the workload's tasks; nil means the VM root group.
	// BEGroup is the VM's best-effort group. No catalogued workload spawns
	// best-effort tasks, so nothing reads it.
	Group   *guest.CGroup
	BEGroup *guest.CGroup
	// Threads overrides the benchmark's default thread count when > 0.
	Threads int
	// Nominal is the calibration constant converting nominal CPU time into
	// cycles (cycles per nanosecond at nominal frequency).
	Nominal float64
}

func (e Env) groupOpt() []guest.TaskOpt {
	if e.Group != nil {
		return []guest.TaskOpt{guest.WithGroup(e.Group)}
	}
	return nil
}

// cycles converts nominal CPU time into cycles.
func (e Env) cycles(d sim.Duration) float64 {
	n := e.Nominal
	if n <= 0 {
		n = 2.0
	}
	return n * float64(d)
}

// Instance is a running workload.
type Instance interface {
	// Start launches the workload's tasks.
	Start()
	// Name returns the benchmark name.
	Name() string
	// Ops returns completed work units (requests, iterations, events).
	Ops() uint64
	// Done reports whether a fixed-size workload has finished (always false
	// for open-ended ones).
	Done() bool
}

// LatencyInstance is implemented by request/response workloads that measure
// per-request latency.
type LatencyInstance interface {
	Instance
	// E2E, Queue and Service return the end-to-end, queueing and service
	// time histograms (nanosecond samples).
	E2E() *metrics.Histogram
	Queue() *metrics.Histogram
	Service() *metrics.Histogram
}

// Kind classifies benchmarks for the harness.
type Kind int

const (
	// Throughput workloads report ops completed.
	Throughput Kind = iota
	// Latency workloads additionally report tail latency.
	Latency
)

// Spec describes one catalogued benchmark.
type Spec struct {
	Name string
	Kind Kind
	New  func(env Env) Instance
}
