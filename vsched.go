// Package vsched is a from-scratch reproduction of "Optimizing Task
// Scheduling in Cloud VMs with Accurate vCPU Abstraction" (EuroSys '25): a
// deterministic simulation of the whole virtualized stack — physical host,
// KVM-like hypervisor scheduler, Linux-CFS-like guest scheduler — with the
// paper's vSched system (the vProbers vcap/vact/vtop and the techniques
// bvs/ivh/rwc) implemented on top, plus the paper's workload suite and an
// experiment harness that regenerates every table and figure of its
// evaluation.
//
// The root package is a facade: it wires the internal packages together for
// the common cases. Typical use:
//
//	cl, err := vsched.NewCluster(vsched.ClusterConfig{Sockets: 1, CoresPerSocket: 8})
//	if err != nil {
//		log.Fatal(err)
//	}
//	vm, err := cl.NewVM("guest", []int{0, 1, 2, 3})
//	if err != nil {
//		log.Fatal(err)
//	}
//	sched := cl.EnableVSched(vm, vsched.AllFeatures())
//	// A noisy co-tenant on core 1.
//	if _, err := cl.AddStressor(1, vsched.DefaultWeight); err != nil {
//		log.Fatal(err)
//	}
//	srv, err := cl.Workload(vm, sched, "nginx", 4)
//	if err != nil {
//		log.Fatal(err)
//	}
//	srv.Start()
//	cl.RunFor(10 * vsched.Second)
//	fmt.Println(srv.Ops())
//
// For the paper's experiments, use RunExperiment or the cmd/experiments
// binary; for custom scenarios, cmd/vschedsim.
package vsched

import (
	"fmt"
	"math"

	"vsched/internal/cachemodel"
	"vsched/internal/core"
	"vsched/internal/experiments"
	"vsched/internal/guest"
	"vsched/internal/harness"
	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/workload"
)

// Re-exported core types. The aliases give downstream users the full APIs of
// the underlying packages through the public module path.
type (
	// Engine is the discrete-event simulation engine.
	Engine = sim.Engine
	// Time is an absolute virtual timestamp (ns).
	Time = sim.Time
	// Duration is a span of virtual time (ns).
	Duration = sim.Duration
	// Host is the physical machine plus hypervisor scheduler.
	Host = host.Host
	// HostConfig describes the physical machine.
	HostConfig = host.Config
	// Thread is one hardware thread.
	Thread = host.Thread
	// Entity is anything the hypervisor schedules (vCPU or contender).
	Entity = host.Entity
	// VM is a guest virtual machine.
	VM = guest.VM
	// VCPU is a virtual CPU inside a VM.
	VCPU = guest.VCPU
	// Task is a guest thread.
	Task = guest.Task
	// TaskOpt configures a spawned task.
	TaskOpt = guest.TaskOpt
	// Behavior is a task program: it returns the next segment each time the
	// previous one completes.
	Behavior = guest.Behavior
	// Segment is one step of a task program.
	Segment = guest.Segment
	// GuestParams are the guest scheduler tunables.
	GuestParams = guest.Params
	// SchedPolicy selects the guest scheduling policy (CFS or EEVDF).
	SchedPolicy = guest.SchedPolicy
	// VSched is the paper's system bound to one VM.
	VSched = core.VSched
	// Features selects vSched components.
	Features = core.Features
	// Params are the vSched tunables (paper Table 1).
	Params = core.Params
	// WorkloadEnv parameterises workload instantiation.
	WorkloadEnv = workload.Env
	// WorkloadInstance is a running workload.
	WorkloadInstance = workload.Instance
	// Server is the request/response workload (Tailbench/Nginx style).
	Server = workload.Server
	// ServerConfig parameterises a custom Server.
	ServerConfig = workload.ServerConfig
)

// Re-exported constants and helpers.
const (
	// Nanosecond .. Second are virtual-time units.
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	// DefaultWeight is the CFS weight of a nice-0 entity.
	DefaultWeight = host.DefaultWeight
)

// PolicyCFS and PolicyEEVDF are the guest scheduling policies.
const (
	PolicyCFS   = guest.PolicyCFS
	PolicyEEVDF = guest.PolicyEEVDF
)

// DefaultGuestParams returns Linux-like guest scheduler parameters.
func DefaultGuestParams() GuestParams { return guest.DefaultParams() }

// Task options, re-exported for spawning custom tasks via VM.Spawn.
var (
	WithAffinity         = guest.WithAffinity
	WithFootprint        = guest.WithFootprint
	WithIdlePolicy       = guest.WithIdlePolicy
	WithLatencySensitive = guest.WithLatencySensitive
	WithWeight           = guest.WithWeight
	StartOn              = guest.StartOn
)

// Task program segments, re-exported for writing custom behaviors.
var (
	ComputeSeg     = guest.Compute
	ComputeForever = guest.ComputeForever
	SleepSeg       = guest.Sleep
	ExitSeg        = guest.Exit
)

// AllFeatures returns full vSched (probers + bvs + ivh + rwc).
func AllFeatures() Features { return core.AllFeatures() }

// EnhancedCFS returns the paper's "enhanced CFS" feature set (probers + rwc).
func EnhancedCFS() Features { return core.EnhancedCFS() }

// DefaultParams returns the paper's Table 1 tunables.
func DefaultParams() Params { return core.DefaultParams() }

// ClusterConfig describes the simulated physical host.
type ClusterConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Sockets, CoresPerSocket, ThreadsPerCore define the topology.
	// Zero values default to 1 socket × 8 cores × 1 thread; negative
	// values make NewCluster fail.
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	// SMT enables SMT contention and turbo effects (realistic speeds);
	// disabled they stay flat, which is easier to reason about.
	SMT bool
}

// Cluster is a simulated host plus its engine.
type Cluster struct {
	eng *sim.Engine
	h   *host.Host
}

// NewCluster builds a simulated host. A zero topology field takes its
// default; a negative one is an error naming the field.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	for _, f := range []struct {
		name string
		v    *int
		def  int
	}{
		{"Sockets", &cfg.Sockets, 1},
		{"CoresPerSocket", &cfg.CoresPerSocket, 8},
		{"ThreadsPerCore", &cfg.ThreadsPerCore, 1},
	} {
		if *f.v < 0 {
			return nil, fmt.Errorf("vsched: ClusterConfig.%s is %d, want >= 0 (0 picks the default, %d)", f.name, *f.v, f.def)
		}
		if *f.v == 0 {
			*f.v = f.def
		}
	}
	eng := sim.NewEngine(cfg.Seed)
	hc := host.TopologyConfig(cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore, !cfg.SMT)
	return &Cluster{eng: eng, h: host.New(eng, hc)}, nil
}

// Engine returns the simulation engine.
func (c *Cluster) Engine() *Engine { return c.eng }

// Host returns the physical host model.
func (c *Cluster) Host() *Host { return c.h }

// Now returns the current virtual time.
func (c *Cluster) Now() Time { return c.eng.Now() }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d Duration) { c.eng.RunFor(d) }

// NewVM creates and starts a VM whose vCPU i is pinned on hardware thread
// threadIDs[i]. An empty list, or a thread id outside [0, NumThreads) of the
// host, is an error.
func (c *Cluster) NewVM(name string, threadIDs []int) (*VM, error) {
	return c.NewVMWithParams(name, threadIDs, guest.DefaultParams())
}

// NewVMWithParams creates and starts a VM with explicit guest scheduler
// parameters (e.g. Policy: PolicyEEVDF). Thread ids are checked as in NewVM.
// Parameters the guest cannot run with are an error: a TickPeriod that is
// not > 0, a Policy other than PolicyCFS or PolicyEEVDF, or a
// CommPenaltySocket, CommPenaltyCross or LLCSizeMB that is not finite.
func (c *Cluster) NewVMWithParams(name string, threadIDs []int, p GuestParams) (*VM, error) {
	if len(threadIDs) == 0 {
		return nil, fmt.Errorf("vsched: VM %q needs at least one vCPU", name)
	}
	if err := checkGuestParams(p); err != nil {
		return nil, err
	}
	threads := make([]*host.Thread, len(threadIDs))
	for i, id := range threadIDs {
		th, err := c.thread(id)
		if err != nil {
			return nil, err
		}
		threads[i] = th
	}
	vm := guest.NewVM(c.h, name, threads, p)
	vm.Start()
	return vm, nil
}

// thread returns hardware thread id, or an error naming the host's range.
func (c *Cluster) thread(id int) (*host.Thread, error) {
	if n := c.h.NumThreads(); id < 0 || id >= n {
		return nil, fmt.Errorf("vsched: thread id %d outside [0, %d)", id, n)
	}
	return c.h.Thread(id), nil
}

// EnableVSched attaches and starts vSched on a VM with default tunables.
func (c *Cluster) EnableVSched(vm *VM, feats Features) *VSched {
	return core.Attach(vm, feats)
}

// EnableVSchedWithParams attaches and starts vSched with explicit tunables
// (paper Table 1 values are the defaults; see DefaultParams). Tunables vSched
// cannot run with are an error: a period, count or divisor that is not a
// finite number > 0, or LightEvery shorter than SamplePeriod.
func (c *Cluster) EnableVSchedWithParams(vm *VM, feats Features, p Params) (*VSched, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	s := core.New(vm, feats, p, cachemodel.Default())
	s.Start()
	return s, nil
}

// AddStressor puts an always-runnable CFS co-tenant with the given weight on
// hardware thread threadID; the vCPU sharing it gets the complementary fair
// share. A thread id outside the host or a weight <= 0 is an error.
func (c *Cluster) AddStressor(threadID int, weight int64) (*Entity, error) {
	th, err := c.thread(threadID)
	if err != nil {
		return nil, err
	}
	if weight <= 0 {
		return nil, fmt.Errorf("vsched: stressor weight %d must be > 0", weight)
	}
	return host.NewStressor(c.h, fmt.Sprintf("stressor-%d", threadID), th, weight), nil
}

// AddPatternContender puts a realtime square-wave co-tenant on a thread: the
// vCPU there is deterministically inactive for `on` every `on+off`, starting
// `phase` from now. A thread id outside the host, on <= 0, off < 0 or
// phase < 0 is an error.
func (c *Cluster) AddPatternContender(threadID int, on, off, phase Duration) (*host.PatternContender, error) {
	th, err := c.thread(threadID)
	if err != nil {
		return nil, err
	}
	switch {
	case on <= 0:
		return nil, fmt.Errorf("vsched: pattern contender on %v must be > 0", on)
	case off < 0:
		return nil, fmt.Errorf("vsched: pattern contender off %v must be >= 0", off)
	case phase < 0:
		return nil, fmt.Errorf("vsched: pattern contender phase %v must be >= 0", phase)
	}
	return host.NewPatternContender(c.h, fmt.Sprintf("pattern-%d", threadID), th, on, off, phase), nil
}

// SetVCPULatency tunes the host scheduler granularities of a thread so the
// vCPU there keeps its share but waits ~lat to get back on CPU (the paper's
// sched_min/wakeup_granularity knob). lat 0 restores the host default. A
// thread id outside the host or lat < 0 is an error.
func (c *Cluster) SetVCPULatency(threadID int, lat Duration) error {
	th, err := c.thread(threadID)
	if err != nil {
		return err
	}
	if lat < 0 {
		return fmt.Errorf("vsched: vCPU latency lat %v must be >= 0", lat)
	}
	th.SetGranularities(lat, 2*lat)
	return nil
}

// Workload instantiates a catalogued benchmark (see WorkloadNames) on a VM.
// sched may be nil (stock CFS); threads 0 uses the benchmark default. An
// unknown name is an error, like an unknown ID in RunExperiment, and so is
// threads < 0.
func (c *Cluster) Workload(vm *VM, sched *VSched, name string, threads int) (WorkloadInstance, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("vsched: unknown workload %q (see vsched.WorkloadNames)", name)
	}
	if threads < 0 {
		return nil, fmt.Errorf("vsched: workload %q: threads %d must be >= 0", name, threads)
	}
	env := workload.Env{VM: vm, Threads: threads, Nominal: c.h.Config().BaseSpeed}
	if sched != nil {
		env.Group = sched.UserGroup()
		env.BEGroup = sched.BEGroup()
	}
	return spec.New(env), nil
}

// NewServer builds a custom request/response workload on a VM (for loads
// the catalogue doesn't cover: open vs closed loop, sticky connections,
// service-time distributions). A config the server cannot run is an error:
// no workers, a negative duration or count, or a jitter or footprint that
// is not a finite number in range.
func (c *Cluster) NewServer(vm *VM, sched *VSched, cfg ServerConfig) (*Server, error) {
	if err := checkServerConfig(cfg); err != nil {
		return nil, err
	}
	env := workload.Env{VM: vm, Nominal: c.h.Config().BaseSpeed}
	if sched != nil {
		env.Group = sched.UserGroup()
		env.BEGroup = sched.BEGroup()
	}
	return workload.NewServer(env, cfg), nil
}

// checkServerConfig rejects the server configs that would otherwise panic
// deep inside the simulation, or silently run something other than asked.
func checkServerConfig(cfg ServerConfig) error {
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("vsched: server %q: bad %s %v (want %s)", cfg.Name, field, v, want)
	}
	switch {
	case cfg.Workers <= 0:
		return bad("Workers", cfg.Workers, "at least 1")
	case cfg.ServiceMean < 0:
		return bad("ServiceMean", cfg.ServiceMean, "a duration >= 0")
	case !(cfg.ServiceJit >= 0 && cfg.ServiceJit <= 1):
		return bad("ServiceJit", cfg.ServiceJit, "a fraction in [0, 1]")
	case cfg.Interarrival < 0:
		return bad("Interarrival", cfg.Interarrival, "a duration >= 0")
	case cfg.Connections < 0:
		return bad("Connections", cfg.Connections, "a count >= 0")
	case cfg.Think < 0:
		return bad("Think", cfg.Think, "a duration >= 0")
	case !(cfg.FootprintMB >= 0) || math.IsInf(cfg.FootprintMB, 1):
		return bad("FootprintMB", cfg.FootprintMB, "a finite size >= 0")
	}
	return nil
}

// checkGuestParams rejects the guest parameters that would otherwise hang or
// panic inside the simulation, or silently run CFS in place of an unknown
// policy.
func checkGuestParams(p GuestParams) error {
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("vsched: bad guest param %s %v (want %s)", field, v, want)
	}
	nonFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	switch {
	case p.TickPeriod <= 0:
		return bad("TickPeriod", p.TickPeriod, "a duration > 0")
	case p.Policy != PolicyCFS && p.Policy != PolicyEEVDF:
		return bad("Policy", int(p.Policy), "PolicyCFS or PolicyEEVDF")
	case nonFinite(p.CommPenaltySocket):
		return bad("CommPenaltySocket", p.CommPenaltySocket, "a finite cost")
	case nonFinite(p.CommPenaltyCross):
		return bad("CommPenaltyCross", p.CommPenaltyCross, "a finite cost")
	case nonFinite(p.LLCSizeMB):
		return bad("LLCSizeMB", p.LLCSizeMB, "a finite size")
	}
	return nil
}

// checkParams rejects the tunables that would otherwise hang or panic inside
// the simulation.
func checkParams(p Params) error {
	positive := []struct {
		field string
		v     float64
	}{
		{"SamplePeriod", float64(p.SamplePeriod)},
		{"LightEvery", float64(p.LightEvery)},
		{"HeavyEveryLights", float64(p.HeavyEveryLights)},
		{"EMAHalfPeriods", p.EMAHalfPeriods},
		{"VtopEvery", float64(p.VtopEvery)},
		{"VtopTargetTransfers", float64(p.VtopTargetTransfers)},
		{"VtopTimeoutAttempts", float64(p.VtopTimeoutAttempts)},
		{"StragglerFactor", p.StragglerFactor},
		{"NominalSpeed", p.NominalSpeed},
	}
	for _, f := range positive {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("vsched: bad param %s %v (want a finite value > 0)", f.field, f.v)
		}
	}
	if p.LightEvery < p.SamplePeriod {
		return fmt.Errorf("vsched: bad param LightEvery %v (want >= SamplePeriod %v)", p.LightEvery, p.SamplePeriod)
	}
	return nil
}

// WorkloadNames lists the catalogued benchmarks.
func WorkloadNames() []string { return workload.Names() }

// ExperimentIDs lists the paper experiments RunExperiment accepts.
func ExperimentIDs() []string {
	var ids []string
	for _, r := range experiments.Registry() {
		ids = append(ids, r.ID)
	}
	return ids
}

// ExperimentOptions configure a RunExperiment call.
type ExperimentOptions = experiments.Options

// ExperimentReport is the regenerated table/figure.
type ExperimentReport = experiments.Report

// RunExperiment regenerates one of the paper's tables or figures (fig2..21,
// table2..4) and returns its report. Scale < 1 shrinks measurement windows;
// 0 means full length, and a negative, NaN or infinite Scale is an error.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentReport, error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("vsched: unknown experiment %q", id)
	}
	if err := checkScale(opt.Scale); err != nil {
		return nil, err
	}
	return r.Run(opt), nil
}

// checkScale rejects a scale the measurement windows cannot be multiplied
// by: NaN, infinite or negative. 0 is the full-length default.
func checkScale(scale float64) error {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("vsched: bad experiment scale %v (want a finite factor >= 0)", scale)
	}
	return nil
}

// HarnessConfig parameterises RunExperiments: experiment set, base seed,
// replicate seeds per experiment, per-trial timeout, scale.
type HarnessConfig = harness.Config

// HarnessResult is a full harness run: per-trial reports and metadata plus
// per-experiment multi-seed aggregates.
type HarnessResult = harness.Result

// TrialResult is one (experiment, replicate) outcome inside a HarnessResult.
type TrialResult = harness.TrialResult

// RunExperiments fans the experiment registry (or cfg.Runners) out, with
// private engines per (experiment, replicate) trial. Trials and the cells
// inside them share one budget of GOMAXPROCS goroutines. Results are
// independent of scheduling: output is byte-identical to a GOMAXPROCS=1 run
// for the same seed set. A NaN, infinite or negative
// cfg.Scale is an error and runs nothing, as in RunExperiment.
func RunExperiments(cfg HarnessConfig) (*HarnessResult, error) {
	if err := checkScale(cfg.Scale); err != nil {
		return nil, err
	}
	return harness.Run(cfg), nil
}

// DeriveSeed maps (baseSeed, experimentID, replicate) to the trial seed the
// harness uses; replicate 0 keeps the base seed.
func DeriveSeed(base int64, experimentID string, replicate int) int64 {
	return harness.DeriveSeed(base, experimentID, replicate)
}
