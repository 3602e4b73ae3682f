// Package cloudgen generates realistic cloud-fleet workload traces: the
// arrival process, sizing, lifetime mix and host population a production
// region sees, rather than the small hand-rolled mixes the early fleet
// experiments used. The shapes follow the SAP Cloud Infrastructure Dataset
// characterization (arXiv:2510.23911):
//
//   - VM sizes are heavy-tailed — most VMs are small, a fat tail of large
//     ones carries much of the capacity. Sampled from a bounded Pareto or a
//     lognormal, rounded to whole vCPUs.
//   - Arrival rates are diurnal — a sinusoidally modulated Poisson process
//     over a multi-day horizon (non-homogeneous Poisson via thinning).
//   - Lifetimes are bimodal — a large population of ephemeral batch VMs
//     (minutes) under a smaller population of long-lived services (hours to
//     days). Batch VMs carry a work budget whose completion stretches under
//     contention; service VMs live for a fixed wall-clock lifetime.
//   - Hosts are heterogeneous — several host classes (core count, SMT,
//     per-thread speed) expanded into a flat fleet spec.
//
// Everything is a pure function of (seed, Config): Generate draws from one
// private rand stream, so the same inputs always produce the byte-identical
// trace, and traces can be replayed across policy comparisons. The package
// deliberately knows nothing about the fleet simulator; internal/fleet
// consumes Trace.
package cloudgen

import (
	"fmt"
	"math"
	"math/rand"

	"vsched/internal/faults"
	"vsched/internal/sim"
)

// SizeKind selects the VM vCPU-count distribution family.
type SizeKind int

const (
	// SizePareto draws sizes from a bounded Pareto: P(X > x) ~ x^-Alpha on
	// [MinVCPUs, MaxVCPUs]. Alpha in 1..2 gives the production-like shape
	// where the mean is dominated by the tail.
	SizePareto SizeKind = iota
	// SizeLognormal draws exp(N(Mu, Sigma)) clamped to [MinVCPUs, MaxVCPUs].
	SizeLognormal
)

func (k SizeKind) String() string {
	switch k {
	case SizePareto:
		return "pareto"
	case SizeLognormal:
		return "lognormal"
	}
	return "?"
}

// SizeDist parameterises the VM size (vCPU count) distribution.
type SizeDist struct {
	Kind     SizeKind
	MinVCPUs int
	MaxVCPUs int
	// Alpha is the Pareto tail exponent (SizePareto).
	Alpha float64
	// Mu, Sigma are the log-space parameters (SizeLognormal).
	Mu, Sigma float64
}

// LifetimeDist parameterises the bimodal lifetime mix.
type LifetimeDist struct {
	// EphemeralFrac is the probability an arrival is an ephemeral batch VM;
	// the rest are long-lived services.
	EphemeralFrac float64
	// EphemeralMean/EphemeralSigma shape the lognormal work budget of batch
	// VMs: median EphemeralMean, log-space sigma EphemeralSigma.
	EphemeralMean  sim.Duration
	EphemeralSigma float64
	// LongMean/LongSigma shape the lognormal wall-clock lifetime of service
	// VMs the same way.
	LongMean  sim.Duration
	LongSigma float64
}

// HostClass describes one homogeneous slice of a heterogeneous fleet.
type HostClass struct {
	Name  string
	Count int
	// Cores and SMT give Threads = Cores*SMT schedulable entities per host.
	Cores int
	SMT   int
	// SpeedFactor scales per-thread capacity relative to the reference
	// thread (1.0); big instances run newer, faster parts.
	SpeedFactor float64
}

// Threads is the number of schedulable hardware threads per host.
func (c HostClass) Threads() int { return c.Cores * c.SMT }

// Config parameterises Generate. Zero fields take DefaultConfig values.
type Config struct {
	// Horizon is the arrival window; VMs arrive in [0, Horizon).
	Horizon sim.Duration
	// BaseRate is the mean arrival rate in VMs per simulated hour.
	BaseRate float64
	// DiurnalAmplitude in [0,1) modulates the rate sinusoidally:
	// rate(t) = BaseRate * (1 + A*sin(2*pi*t/Period + Phase)).
	DiurnalAmplitude float64
	// DiurnalPeriod defaults to 24 simulated hours.
	DiurnalPeriod sim.Duration
	// DiurnalPhase shifts the peak (radians).
	DiurnalPhase float64
	// ServiceDemand in (0,1] is the per-vCPU CPU demand fraction of service
	// VMs (mostly idle between requests); batch VMs always demand 1.0.
	ServiceDemand float64
	Size          SizeDist
	Lifetime      LifetimeDist
	Hosts         []HostClass
	// MaxVMs caps the trace length (0 = uncapped).
	MaxVMs int
	// Faults, when non-nil, also generates a host fault schedule for the
	// expanded fleet (see internal/faults). faults.Generate draws from its
	// own per-(host, kind) sub-streams keyed off the trace seed — nothing is
	// consumed from the arrival stream, so the VM trace is byte-identical
	// with faults on or off (the golden digest test pins this).
	Faults *faults.Config
}

// Hour is one simulated hour.
const Hour = 3600 * sim.Second

// DefaultConfig is a production-shaped region scaled to fit a CI budget:
// 1024 heterogeneous hosts under a diurnal arrival process that yields
// ~100k VM lifetimes over a 48h horizon.
func DefaultConfig() Config {
	return Config{
		Horizon:          48 * Hour,
		BaseRate:         2400, // VMs/hour -> ~115k over 48h
		DiurnalAmplitude: 0.6,
		DiurnalPeriod:    24 * Hour,
		DiurnalPhase:     0,
		ServiceDemand:    0.5,
		Size: SizeDist{
			Kind:     SizePareto,
			MinVCPUs: 1,
			MaxVCPUs: 32,
			Alpha:    1.4,
		},
		Lifetime: LifetimeDist{
			EphemeralFrac:  0.72,
			EphemeralMean:  18 * 60 * sim.Second, // median 18 min of work
			EphemeralSigma: 1.0,
			LongMean:       8 * Hour, // median 8 h lifetime
			LongSigma:      1.2,
		},
		Hosts: []HostClass{
			{Name: "std16", Count: 512, Cores: 8, SMT: 2, SpeedFactor: 1.0},
			{Name: "big32", Count: 384, Cores: 16, SMT: 2, SpeedFactor: 1.15},
			{Name: "small8", Count: 128, Cores: 8, SMT: 1, SpeedFactor: 0.9},
		},
	}
}

// Class tags a VM's tenant behaviour.
type Class uint8

const (
	// Service VMs are latency-sensitive, partially idle, and live for a
	// fixed wall-clock lifetime.
	Service Class = iota
	// Batch VMs are CPU-bound and depart when their work budget completes —
	// later if contention starves them.
	Batch
)

func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "service"
}

// VM is one arrival of the generated trace.
type VM struct {
	ID    int
	At    sim.Time
	VCPUs int
	Class Class
	// Demand is the CPU fraction each vCPU wants while the VM is alive.
	Demand float64
	// Lifetime is the wall-clock residency of a Service VM (0 for Batch).
	Lifetime sim.Duration
	// Work is the per-vCPU compute budget of a Batch VM at full allocation
	// (0 for Service); its completion stretches under contention.
	Work sim.Duration
}

// HostSpec is one host of the expanded fleet, in stable fleet order: class
// declaration order, then instance index within the class. Placement
// policies key on this order for deterministic tie-breaking.
type HostSpec struct {
	Class       string
	Threads     int
	SpeedFactor float64
}

// Trace is the full generated workload: the host population and the arrival
// sequence, sorted by (At, ID).
type Trace struct {
	Seed    int64
	Horizon sim.Duration
	Hosts   []HostSpec
	VMs     []VM
	// Faults is the host fault schedule when Config.Faults was set; nil
	// otherwise. Generated from an independent stream: the VM sequence above
	// is identical either way.
	Faults *faults.Schedule
}

// TotalThreads sums hardware threads across the fleet.
func (t Trace) TotalThreads() int {
	n := 0
	for _, h := range t.Hosts {
		n += h.Threads
	}
	return n
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Horizon <= 0 {
		c.Horizon = d.Horizon
	}
	if c.BaseRate <= 0 {
		c.BaseRate = d.BaseRate
	}
	if c.DiurnalPeriod <= 0 {
		c.DiurnalPeriod = d.DiurnalPeriod
	}
	if c.ServiceDemand == 0 {
		c.ServiceDemand = d.ServiceDemand
	}
	if c.Size == (SizeDist{}) {
		c.Size = d.Size
	}
	if c.Lifetime == (LifetimeDist{}) {
		c.Lifetime = d.Lifetime
	}
	if len(c.Hosts) == 0 {
		c.Hosts = d.Hosts
	}
	return c
}

// validate panics on configurations that cannot be sampled deterministically
// and meaningfully; these are programming errors, not data.
func (c Config) validate() {
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		panic(fmt.Sprintf("cloudgen: diurnal amplitude %v outside [0,1)", c.DiurnalAmplitude))
	}
	if c.Size.MinVCPUs < 1 || c.Size.MaxVCPUs < c.Size.MinVCPUs {
		panic(fmt.Sprintf("cloudgen: size bounds [%d,%d] invalid", c.Size.MinVCPUs, c.Size.MaxVCPUs))
	}
	if !(c.ServiceDemand > 0 && c.ServiceDemand <= 1) {
		panic(fmt.Sprintf("cloudgen: ServiceDemand %v outside (0,1]", c.ServiceDemand))
	}
	if c.Size.Kind == SizePareto && c.Size.Alpha <= 0 {
		panic(fmt.Sprintf("cloudgen: pareto alpha %v must be positive", c.Size.Alpha))
	}
	if c.Size.Kind == SizeLognormal && c.Size.Sigma <= 0 {
		panic(fmt.Sprintf("cloudgen: lognormal sigma %v must be positive", c.Size.Sigma))
	}
	lf := c.Lifetime
	if lf.EphemeralFrac < 0 || lf.EphemeralFrac > 1 {
		panic(fmt.Sprintf("cloudgen: ephemeral fraction %v outside [0,1]", lf.EphemeralFrac))
	}
	if lf.EphemeralFrac > 0 && lf.EphemeralMean <= 0 {
		panic("cloudgen: ephemeral mean work must be positive")
	}
	if lf.EphemeralFrac < 1 && lf.LongMean <= 0 {
		panic("cloudgen: long-lived mean lifetime must be positive")
	}
	maxThreads := 0
	for _, h := range c.Hosts {
		if h.Count <= 0 || h.Cores <= 0 || h.SMT <= 0 {
			panic(fmt.Sprintf("cloudgen: host class %q needs positive count/cores/smt", h.Name))
		}
		if h.SpeedFactor <= 0 {
			panic(fmt.Sprintf("cloudgen: host class %q needs positive speed factor", h.Name))
		}
		maxThreads = max(maxThreads, h.Threads())
	}
	// Generate clamps MaxVCPUs to the largest host; a MinVCPUs above it
	// would leave no size that is both in range and placeable.
	if c.Size.MinVCPUs > maxThreads {
		panic(fmt.Sprintf("cloudgen: Size.MinVCPUs %d above the largest host's %d threads", c.Size.MinVCPUs, maxThreads))
	}
}

// maxPresize bounds the capacity Generate reserves up front (~59 MB of VMs,
// over four times the largest trace in use), so a huge or non-finite rate
// estimate cannot overflow or reserve memory before a single draw; a longer
// trace still grows by appending.
const maxPresize = 1 << 20

// expectedVMs is the capacity Generate reserves for the trace: the Poisson
// mean of the arrival count, which is the integral of the diurnal rate over
// [0, Horizon) in closed form, plus a four-sigma margin, capped by MaxVMs.
// A draw past the estimate still appends; the margin makes that rare (about
// 3e-5 of traces) and reserves 4/sqrt(mean) of the trace in spare capacity,
// under 1.5% from 100k VMs up.
func (c Config) expectedVMs() int {
	h, p := float64(c.Horizon), float64(c.DiurnalPeriod)
	mean := c.BaseRate / float64(Hour) * (h + c.DiurnalAmplitude*p/(2*math.Pi)*
		(math.Cos(c.DiurnalPhase)-math.Cos(2*math.Pi*h/p+c.DiurnalPhase)))
	n := mean + 4*math.Sqrt(mean) + 1
	if c.MaxVMs > 0 && n > float64(c.MaxVMs) {
		n = float64(c.MaxVMs)
	}
	if !(n < maxPresize) {
		n = maxPresize
	}
	return int(n)
}

// Generate produces the trace for (seed, cfg). Deterministic: one private
// rand stream, consumed in a fixed order per arrival. Two things keep it
// cheap without moving a draw: tr.VMs is sized once from the integral of the
// arrival rate (expectedVMs), and the bounded-Pareto constants are computed
// once per trace instead of once per VM.
func Generate(seed int64, cfg Config) Trace {
	cfg = cfg.withDefaults()
	cfg.validate()
	rng := rand.New(rand.NewSource(seed))

	tr := Trace{Seed: seed, Horizon: cfg.Horizon}
	hosts := 0
	for _, hc := range cfg.Hosts {
		hosts += hc.Count
	}
	tr.Hosts = make([]HostSpec, 0, hosts)
	for _, hc := range cfg.Hosts {
		for i := 0; i < hc.Count; i++ {
			tr.Hosts = append(tr.Hosts, HostSpec{
				Class:       hc.Name,
				Threads:     hc.Threads(),
				SpeedFactor: hc.SpeedFactor,
			})
		}
	}

	// Non-homogeneous Poisson arrivals by thinning: propose at the peak rate
	// rateMax, accept each proposal with probability rate(t)/rateMax. The
	// largest vCPU size is clamped to the largest host, so every generated
	// VM is placeable somewhere in this fleet.
	maxThreads := 0
	for _, h := range tr.Hosts {
		if h.Threads > maxThreads {
			maxThreads = h.Threads
		}
	}
	size := cfg.Size
	if size.MaxVCPUs > maxThreads {
		size.MaxVCPUs = maxThreads
	}
	sizer := newSizeSampler(size)
	tr.VMs = make([]VM, 0, cfg.expectedVMs())
	rateMax := cfg.BaseRate * (1 + cfg.DiurnalAmplitude) / float64(Hour) // per ns
	var at sim.Time
	id := 0
	for {
		at = at.Add(sim.Duration(rng.ExpFloat64() / rateMax))
		if at >= sim.Time(cfg.Horizon) {
			break
		}
		if cfg.MaxVMs > 0 && id >= cfg.MaxVMs {
			break
		}
		// Thinning draw happens for every proposal, accepted or not, so the
		// stream stays aligned whatever the modulation does.
		u := rng.Float64()
		rate := cfg.BaseRate * (1 + cfg.DiurnalAmplitude*
			math.Sin(2*math.Pi*float64(at)/float64(cfg.DiurnalPeriod)+cfg.DiurnalPhase)) / float64(Hour)
		if u*rateMax > rate {
			continue
		}
		vm := VM{ID: id, At: at, VCPUs: sizer.sample(rng)}
		if rng.Float64() < cfg.Lifetime.EphemeralFrac {
			vm.Class = Batch
			vm.Demand = 1.0
			vm.Work = lognormalDur(rng, cfg.Lifetime.EphemeralMean, cfg.Lifetime.EphemeralSigma)
		} else {
			vm.Class = Service
			vm.Demand = cfg.ServiceDemand
			vm.Lifetime = lognormalDur(rng, cfg.Lifetime.LongMean, cfg.Lifetime.LongSigma)
		}
		tr.VMs = append(tr.VMs, vm)
		id++
	}
	if cfg.Faults != nil {
		s := faults.Generate(seed, len(tr.Hosts), cfg.Horizon, *cfg.Faults)
		tr.Faults = &s
	}
	return tr
}

// sizeSampler draws vCPU counts from one SizeDist. For SizePareto it holds
// MinVCPUs^Alpha, MaxVCPUs^Alpha and -1/Alpha, which every draw needs.
type sizeSampler struct {
	d                   SizeDist
	la, ha, negInvAlpha float64
}

func newSizeSampler(d SizeDist) sizeSampler {
	s := sizeSampler{d: d}
	if d.Kind == SizePareto {
		s.la, s.ha = math.Pow(float64(d.MinVCPUs), d.Alpha), math.Pow(float64(d.MaxVCPUs), d.Alpha)
		s.negInvAlpha = -1 / d.Alpha
	}
	return s
}

// sample draws one vCPU count.
func (s *sizeSampler) sample(rng *rand.Rand) int {
	d := s.d
	var v float64
	switch d.Kind {
	case SizePareto:
		v = paretoBounded(rng, s.la, s.ha, s.negInvAlpha)
	case SizeLognormal:
		v = math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
	default:
		panic(fmt.Sprintf("cloudgen: unknown size kind %d", d.Kind))
	}
	n := int(math.Floor(v))
	if n < d.MinVCPUs {
		n = d.MinVCPUs
	}
	if n > d.MaxVCPUs {
		n = d.MaxVCPUs
	}
	return n
}

// paretoBounded inverts the bounded-Pareto CDF on [lo, hi] with tail
// exponent alpha, given la = lo^alpha, ha = hi^alpha and negInvAlpha =
// -1/alpha: both truncation points are respected exactly, unlike capping an
// unbounded draw, so the sampled mass integrates to one.
func paretoBounded(rng *rand.Rand, la, ha, negInvAlpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), negInvAlpha)
}

// lognormalDur draws a lognormal duration with the given median and
// log-space sigma, floored at one millisecond so a lifetime is never zero
// or negative however extreme the draw.
func lognormalDur(rng *rand.Rand, median sim.Duration, sigma float64) sim.Duration {
	v := float64(median) * math.Exp(sigma*rng.NormFloat64())
	if v < float64(sim.Millisecond) {
		v = float64(sim.Millisecond)
	}
	if v > math.MaxInt64/2 {
		v = math.MaxInt64 / 2
	}
	return sim.Duration(v)
}
