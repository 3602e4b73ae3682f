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
	// Ops returns completed work units (requests, iterations, events).
	Ops() uint64
}

// Spec describes one catalogued benchmark.
type Spec struct {
	Name string
	New  func(env Env) Instance
}
