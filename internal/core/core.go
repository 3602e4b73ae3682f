// Package core implements vSched, the paper's contribution: accurate vCPU
// abstraction probed from inside the VM (the vProbers vcap, vact and vtop)
// and three scheduling techniques built on it — biased vCPU selection (bvs),
// intra-VM harvesting (ivh) and relaxed work conservation (rwc).
//
// Everything here consumes only guest-legitimate information: steal-time
// counters, the guest's own tick timestamps (heartbeats), measured cache
// line transfer latencies, PELT, and runqueue state. Host ground truth is
// never read by policy code.
package core

import (
	"math"
	"slices"

	"vsched/internal/cachemodel"
	"vsched/internal/guest"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Params are the vSched tunables (Table 1 of the paper) plus classification
// thresholds.
type Params struct {
	SamplePeriod     sim.Duration // vcap sampling period (100 ms)
	LightEvery       sim.Duration // light sampling frequency (1 s)
	HeavyEveryLights int          // heavy sampling every N light samplings (5)
	// EMAHalfPeriods is the smoothing horizon: capacity decays 50% per this
	// many sampling periods (2).
	EMAHalfPeriods float64

	VtopEvery           sim.Duration // topology validation frequency (2 s)
	VtopTargetTransfers int          // successful transfers per pair (500)
	VtopTimeoutAttempts int          // attempts before declaring stacked (15000)

	IVHMinRun sim.Duration // ivh migration threshold (2 ms)

	// SmallTaskUtil is the PELT ceiling under which a latency-sensitive task
	// is "small" for bvs.
	SmallTaskUtil float64
	// CPUIntensiveUtil is the PELT floor above which ivh treats a task as
	// CPU-intensive. It sits well below full utilisation because a
	// compute-bound task on a frequently-inactive vCPU accrues utilisation
	// only in proportion to the vCPU's share.
	CPUIntensiveUtil float64
	// StragglerFactor: a vCPU whose capacity is this many times below the
	// average is a straggler for rwc (10).
	StragglerFactor float64

	// NominalSpeed is the guest's calibration constant: cycles per
	// nanosecond at nominal frequency (what /proc/cpuinfo advertises).
	// Capacities are normalised against it.
	NominalSpeed float64
}

// DefaultParams mirrors Table 1.
func DefaultParams() Params {
	return Params{
		SamplePeriod:        100 * sim.Millisecond,
		LightEvery:          1 * sim.Second,
		HeavyEveryLights:    5,
		EMAHalfPeriods:      2,
		VtopEvery:           2 * sim.Second,
		VtopTargetTransfers: 500,
		VtopTimeoutAttempts: 15000,
		IVHMinRun:           2 * sim.Millisecond,
		SmallTaskUtil:       250,
		CPUIntensiveUtil:    350,
		StragglerFactor:     10,
		NominalSpeed:        2.0,
	}
}

// Features selects which vSched components run. The paper's "enhanced CFS"
// is {Vcap, Vact, Vtop, RWC}; full vSched adds BVS and IVH.
type Features struct {
	Vcap bool
	Vact bool
	Vtop bool
	BVS  bool
	IVH  bool
	RWC  bool
	// Vllc enables the extension cache prober (§8: probing "other
	// resources"); advisory only, never consumed by the scheduler.
	Vllc bool
}

// EnhancedCFS returns the feature set of the paper's "enhanced CFS"
// configuration: accurate abstraction plus rwc, without the new
// activity-aware techniques.
func EnhancedCFS() Features {
	return Features{Vcap: true, Vact: true, Vtop: true, RWC: true}
}

// AllFeatures returns full vSched.
func AllFeatures() Features {
	return Features{Vcap: true, Vact: true, Vtop: true, BVS: true, IVH: true, RWC: true}
}

// VSched binds the probers and techniques to one VM.
type VSched struct {
	vm       *guest.VM
	eng      *sim.Engine
	params   Params
	features Features
	model    cachemodel.Model

	vcap *vcap
	vact *vact
	vtop *Vtop
	vllc *Vllc
	rwc  *rwc
	ivh  *ivh

	// bvsStateCheck gates Fig. 8's vCPU-state conditions; disabling it gives
	// the "bvs (no state check)" ablation of Table 3.
	bvsStateCheck bool
	// bvsCalls/bvsHits count hook invocations and first-fit successes,
	// registered in the VM's metrics registry.
	bvsCalls, bvsHits *metrics.Counter
	// bvsBestFit switches the first-fit search to an exhaustive best-fit
	// scan (ablation).
	bvsBestFit bool
	// bvsMedianGate anchors the low-latency cutoff to the median instead of
	// the best class (ablation).
	bvsMedianGate bool

	userGroup   *guest.CGroup // normal-policy user workloads
	beGroup     *guest.CGroup // best-effort (SCHED_IDLE) user workloads
	proberGroup *guest.CGroup // vcap/vact probers

	// capBuf is medianCapacity's scratch buffer, reused across calls.
	capBuf []int64

	started bool
}

// New creates a vSched instance for vm with the given features. The cache
// model supplies the physics of vtop's latency measurements.
func New(vm *guest.VM, features Features, params Params, model cachemodel.Model) *VSched {
	s := &VSched{
		vm:            vm,
		eng:           vm.Engine(),
		params:        params,
		features:      features,
		model:         model,
		bvsStateCheck: true,
	}
	s.bvsCalls = vm.Metrics().Counter("vsched.bvs.calls")
	s.bvsHits = vm.Metrics().Counter("vsched.bvs.hits")
	s.userGroup = vm.NewGroup("vsched-user")
	s.beGroup = vm.NewGroup("vsched-be")
	s.proberGroup = vm.NewGroup("vsched-probers")
	s.vcap = newVcap(s)
	s.vact = newVact(s)
	s.vtop = newVtop(s)
	s.vllc = newVllc(s)
	s.rwc = newRWC(s)
	s.ivh = newIVH(s)
	return s
}

// Attach creates and starts vSched on vm with the default tunables and
// cache model, calibrated the way the guest sees its hardware: NominalSpeed
// is the host's BaseSpeed, the nominal frequency every vcap capacity is
// normalised against.
func Attach(vm *guest.VM, features Features) *VSched {
	p := DefaultParams()
	p.NominalSpeed = vm.Host().Config().BaseSpeed
	s := New(vm, features, p, cachemodel.Default())
	s.Start()
	return s
}

// VM returns the managed VM.
func (s *VSched) VM() *guest.VM { return s.vm }

// Params returns the tunables.
func (s *VSched) Params() Params { return s.params }

// UserGroup is the cgroup user workloads with normal policy should join;
// rwc manages its allowed mask.
func (s *VSched) UserGroup() *guest.CGroup { return s.userGroup }

// BEGroup is the cgroup for best-effort (SCHED_IDLE) user workloads.
func (s *VSched) BEGroup() *guest.CGroup { return s.beGroup }

// Vtop exposes the topology prober (experiments read its matrix and probe
// times).
func (s *VSched) Vtop() *Vtop { return s.vtop }

// IVHStats returns counters of ivh's migration protocol.
func (s *VSched) IVHStats() IVHStats {
	return IVHStats{
		Attempts:  s.ivh.attempts.Value(),
		Migrated:  s.ivh.migrated.Value(),
		Abandoned: s.ivh.abandoned.Value(),
	}
}

// tracer returns the managed VM's event tracer (nil when tracing is off);
// every emit site goes through it so tracing can be flipped per VM.
func (s *VSched) tracer() *vtrace.Tracer { return s.vm.Tracer() }

// SetIVHActivityAware toggles the pre-wake protocol (Table 4's ablation);
// default true.
func (s *VSched) SetIVHActivityAware(aware bool) { s.ivh.activityAware = aware }

// SetBVSStateCheck toggles bvs's use of the probed vCPU state (Table 3's
// "bvs (no state check)" ablation); default true.
func (s *VSched) SetBVSStateCheck(check bool) { s.bvsStateCheck = check }

// BVSStats returns how often the bvs hook ran and how often its first-fit
// search produced a placement (vs falling back to CFS).
func (s *VSched) BVSStats() (calls, hits uint64) {
	return s.bvsCalls.Value(), s.bvsHits.Value()
}

// SetBVSBestFit switches bvs to an exhaustive best-fit scan instead of the
// paper's first-fit policy (ablation).
func (s *VSched) SetBVSBestFit(b bool) { s.bvsBestFit = b }

// SetBVSMedianGate switches bvs's low-latency cutoff back to the median
// published latency instead of the min-anchored class gate (ablation: on a
// VM where a minority of vCPUs is genuinely low-latency, the median blesses
// the middle class and bvs parks latency tasks behind inactive bursts).
func (s *VSched) SetBVSMedianGate(b bool) { s.bvsMedianGate = b }

// Start launches the enabled probers and installs hooks. Idempotent.
func (s *VSched) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.features.Vcap || s.features.Vact {
		s.vcap.start()
	}
	if s.features.Vtop {
		s.vtop.start()
	}
	if s.features.Vllc {
		s.vllc.start()
	}
	hooks := guest.Hooks{}
	if s.features.BVS {
		hooks.SelectCPU = s.bvsSelect
	}
	if s.features.IVH {
		hooks.Tick = s.ivh.onTick
	}
	if s.features.BVS || s.features.IVH {
		s.vm.InstallHooks(hooks)
	}
}

// --- vact's state query (heartbeat examination) ---

// VCPUState is the probed activity state of a vCPU.
type VCPUState int

const (
	// StateIdle: the guest has nothing to run there (not a host condition).
	StateIdle VCPUState = iota
	// StateActive: heartbeats are fresh — the vCPU is really executing.
	StateActive
	// StateInactive: heartbeats are stale on a busy vCPU — it is preempted.
	StateInactive
)

func (st VCPUState) String() string {
	switch st {
	case StateIdle:
		return "idle"
	case StateActive:
		return "active"
	case StateInactive:
		return "inactive"
	}
	return "invalid"
}

// QueryState classifies a vCPU from guest-visible signals only: guest
// idleness, and the staleness of its tick heartbeat (stale for more than two
// ticks => preempted). The returned time is when the state was entered (tick
// granularity).
func (s *VSched) QueryState(v *guest.VCPU) (VCPUState, sim.Time) {
	if v.GuestIdle() {
		return StateIdle, v.IdleSince()
	}
	now := s.eng.Now()
	staleAfter := 2 * s.vm.Params().TickPeriod
	if now.Sub(v.Heartbeat()) > staleAfter {
		return StateInactive, v.Heartbeat()
	}
	return StateActive, v.BecameActiveAt()
}

// medianCapacity returns the median published capacity across vCPUs.
func (s *VSched) medianCapacity() int64 {
	caps := s.capBuf[:0]
	for _, v := range s.vm.VCPUs() {
		caps = append(caps, v.Capacity())
	}
	slices.Sort(caps)
	s.capBuf = caps
	return caps[(len(caps)-1)/2]
}

// lowLatencyThreshold returns the cutoff below which a vCPU counts as
// "low latency" for bvs. The bias must be relative — on a fully contended
// VM every latency is in the milliseconds and bvs should still prefer the
// 3 ms class over the 9 ms class — but anchored to the best class, not the
// median: when even one vCPU is genuinely low-latency (hpvm's dedicated
// socket), a median anchor would bless the middle class and bvs would place
// latency tasks behind multi-millisecond inactive bursts that stock
// capacity-aware CFS avoids. Cutoff: 1.5x the minimum published latency —
// tight enough to split the paper's 3/6/9 ms category ladder — with one
// tick of additive slack so a homogeneous class is accepted whole despite
// probe noise and near-zero minima.
func (s *VSched) lowLatencyThreshold() sim.Duration {
	if s.bvsMedianGate {
		// Ablation: the obvious-but-wrong anchor.
		ls := make([]sim.Duration, 0, s.vm.NumVCPUs())
		for _, v := range s.vm.VCPUs() {
			ls = append(ls, v.Latency())
		}
		slices.Sort(ls)
		return ls[(len(ls)-1)/2]
	}
	min := sim.Duration(-1)
	for _, v := range s.vm.VCPUs() {
		if l := v.Latency(); min < 0 || l < min {
			min = l
		}
	}
	thresh := min + min/2
	if slack := min + s.vm.Params().TickPeriod; thresh < slack {
		thresh = slack
	}
	return thresh
}

// emaFactor converts the half-period horizon into a per-period decay factor.
func (p Params) emaFactor() float64 {
	return math.Exp2(-1 / p.EMAHalfPeriods)
}
