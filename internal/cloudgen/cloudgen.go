// Package cloudgen generates realistic cloud-fleet workload traces: the
// arrival process, sizing, lifetime mix and host population a production
// region sees, rather than the small hand-rolled mixes the early fleet
// experiments used. The shapes follow the SAP Cloud Infrastructure Dataset
// characterization (arXiv:2510.23911):
//
//   - VM sizes are heavy-tailed — most VMs are small, a fat tail of large
//     ones carries much of the capacity. Sampled from a bounded Pareto,
//     rounded down to whole vCPUs.
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

// SizeDist parameterises the VM size (vCPU count) distribution, a bounded
// Pareto: P(X > x) ~ x^-Alpha on [MinVCPUs, MaxVCPUs]. Alpha in 1..2 gives
// the production-like shape where the mean is dominated by the tail.
type SizeDist struct {
	MinVCPUs int
	MaxVCPUs int
	// Alpha is the Pareto tail exponent.
	Alpha float64
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
	// A NaN passes every range check below, and an infinite rate stalls the
	// arrival clock: reject both before any of them.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"BaseRate", c.BaseRate},
		{"DiurnalAmplitude", c.DiurnalAmplitude},
		{"DiurnalPhase", c.DiurnalPhase},
		{"Size.Alpha", c.Size.Alpha},
		{"Lifetime.EphemeralSigma", c.Lifetime.EphemeralSigma},
		{"Lifetime.LongSigma", c.Lifetime.LongSigma},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			panic(fmt.Sprintf("cloudgen: %s %v is not finite", f.name, f.v))
		}
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		panic(fmt.Sprintf("cloudgen: diurnal amplitude %v outside [0,1)", c.DiurnalAmplitude))
	}
	if c.Size.MinVCPUs < 1 || c.Size.MaxVCPUs < c.Size.MinVCPUs {
		panic(fmt.Sprintf("cloudgen: size bounds [%d,%d] invalid", c.Size.MinVCPUs, c.Size.MaxVCPUs))
	}
	if !(c.ServiceDemand > 0 && c.ServiceDemand <= 1) {
		panic(fmt.Sprintf("cloudgen: ServiceDemand %v outside (0,1]", c.ServiceDemand))
	}
	if c.Size.Alpha <= 0 {
		panic(fmt.Sprintf("cloudgen: pareto alpha %v must be positive", c.Size.Alpha))
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
	mean := float64(c.BaseRate / float64(Hour) * (h + float64(c.DiurnalAmplitude*p/(2*math.Pi)*
		(math.Cos(c.DiurnalPhase)-math.Cos(2*math.Pi*h/p+c.DiurnalPhase)))))
	n := mean + float64(4*math.Sqrt(mean)) + 1
	if c.MaxVMs > 0 && n > float64(c.MaxVMs) {
		n = float64(c.MaxVMs)
	}
	if !(n < maxPresize) {
		n = maxPresize
	}
	return int(n)
}

// Generate produces the trace for (seed, cfg). Deterministic: one private
// rand stream, consumed in a fixed order per arrival. Nothing that keeps it
// cheap moves a draw or changes a decision:
//   - tr.VMs is sized once from the integral of the arrival rate
//     (expectedVMs);
//   - the thinning test compares each proposal with bounds on the diurnal
//     rate over its slice of the period and evaluates the sine only for a
//     draw that falls between them (thinner);
//   - a bounded-Pareto size is read off per-size thresholds on the inverse
//     CDF's argument, with math.Pow called only for an argument that falls
//     between a threshold pair (sizeSampler).
func Generate(seed int64, cfg Config) Trace {
	tr, _ := generate(seed, cfg)
	return tr
}

// drawCounts counts, for one generate call, the thinning proposals, how
// many of them evaluated the sine, and how many bounded-Pareto size draws
// called math.Pow.
type drawCounts struct {
	proposals, sines, pows int
}

// generate is Generate, also reporting how often its shortcuts fell back to
// the full expression.
func generate(seed int64, cfg Config) (Trace, drawCounts) {
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
	thin := newThinner(cfg)
	tr.VMs = make([]VM, 0, cfg.expectedVMs())
	var st drawCounts
	var at sim.Time
	id := 0
	for {
		at = at.Add(sim.Duration(rng.ExpFloat64() / thin.rateMax))
		if at >= sim.Time(cfg.Horizon) {
			break
		}
		if cfg.MaxVMs > 0 && id >= cfg.MaxVMs {
			break
		}
		// Thinning draw happens for every proposal, accepted or not, so the
		// stream stays aligned whatever the modulation does.
		st.proposals++
		if !thin.accept(at, rng.Float64()*thin.rateMax) {
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
	st.sines, st.pows = thin.sines, sizer.pows
	return tr, st
}

// thinBuckets is the number of equal slices of one diurnal period for which
// thinner keeps rate bounds.
const thinBuckets = 1024

// thinner decides which arrival proposals survive thinning. bounds[i] holds
// a lower and an upper bound on the rate over the i-th slice of the period,
// so a proposal whose draw falls outside them is decided without the sine;
// one between them evaluates the rate itself and gets the same answer.
type thinner struct {
	base, amp, phase float64
	period, width    sim.Duration
	// rateMax is the proposal rate, the peak of the rate, in VMs per ns.
	rateMax float64
	bounds  [thinBuckets]struct{ lo, hi float64 }
	sines   int // proposals that evaluated the sine
}

func newThinner(cfg Config) thinner {
	th := thinner{
		base:    cfg.BaseRate,
		amp:     cfg.DiurnalAmplitude,
		phase:   cfg.DiurnalPhase,
		period:  cfg.DiurnalPeriod,
		width:   (cfg.DiurnalPeriod-1)/thinBuckets + 1,
		rateMax: cfg.BaseRate * (1 + cfg.DiurnalAmplitude) / float64(Hour),
	}
	// accept rounds its angle, and so drifts from the exact sine by a few ulps
	// of the largest angle before the horizon, plus the sine's own rounding.
	// The edge sines below carry the same error. pad covers both with a
	// margin of several hundred.
	thetaMax := 2*math.Pi*float64(cfg.Horizon)/float64(th.period) + math.Abs(th.phase)
	pad := float64((thetaMax + 1) * 0x1p-40)
	edge := func(i int) (theta, sin float64) {
		t := th.period
		if sim.Duration(i) <= th.period/th.width {
			t = sim.Duration(i) * th.width
		}
		theta = th.angle(sim.Time(t))
		return theta, math.Sin(theta)
	}
	theta0, s0 := edge(0)
	for i := range th.bounds {
		theta1, s1 := edge(i + 1)
		lo, hi := min(s0, s1), max(s0, s1)
		if crosses(theta0, theta1, math.Pi/2) {
			hi = 1
		}
		if crosses(theta0, theta1, -math.Pi/2) {
			lo = -1
		}
		// rateAt is monotone in the sine, rounding included.
		th.bounds[i].lo, th.bounds[i].hi = th.rateAt(lo-pad), th.rateAt(hi+pad)
		theta0, s0 = theta1, s1
	}
	return th
}

// crosses reports whether [a, b] holds c + 2πn for some integer n. Rounding
// can miss a point within a few ulps of a or b, where the sine at that end
// is within pad of the extremum anyway.
func crosses(a, b, c float64) bool {
	return math.Floor((b-c)/(2*math.Pi)) > math.Floor((a-c)/(2*math.Pi))
}

// angle is the phase of the diurnal sine at time t.
func (th *thinner) angle(t sim.Time) float64 {
	return 2*math.Pi*float64(t)/float64(th.period) + th.phase
}

// rateAt is the arrival rate, in VMs per ns, where the diurnal sine is sin:
// BaseRate * (1 + A*sin) per hour.
func (th *thinner) rateAt(sin float64) float64 {
	return th.base * (1 + float64(th.amp*sin)) / float64(Hour)
}

// accept reports whether a proposal at time at survives thinning, given
// p = u*rateMax for its uniform draw u: whether p <= rateAt(Sin(angle(at))).
func (th *thinner) accept(at sim.Time, p float64) bool {
	b := &th.bounds[sim.Duration(at)%th.period/th.width]
	if p <= b.lo {
		return true
	}
	if p > b.hi {
		return false
	}
	th.sines++
	return p <= th.rateAt(math.Sin(th.angle(at)))
}

// maxSizeGuards caps the sizes that get a sizeGuard, so that a fleet of very
// large hosts does not spend its set-up bisecting for sizes a heavy-tailed
// draw seldom reaches. A draw past the last guard calls math.Pow.
const maxSizeGuards = 64

// sizeGuard brackets the inverse-CDF argument x at which a bounded-Pareto
// draw reaches size k: Pow(x, -1/Alpha) >= k for every x <= hi, and < k for
// every x >= lo.
type sizeGuard struct{ hi, lo float64 }

// sizeSampler draws vCPU counts from one SizeDist. It holds MinVCPUs^Alpha,
// MaxVCPUs^Alpha, their product and -1/Alpha, which every draw needs, and the
// guards of the sizes above MinVCPUs.
type sizeSampler struct {
	d                         SizeDist
	la, ha, hala, negInvAlpha float64
	// guards[i] is the sizeGuard of size MinVCPUs+1+i.
	guards []sizeGuard
	// top is the least x for which Pow(x, -1/Alpha) is surely below 2^62,
	// so that its floor converts to int exactly. It is +Inf when guards stop
	// short of MaxVCPUs, so that a draw past the last guard calls math.Pow.
	top  float64
	pows int // Pareto draws that called math.Pow
}

func newSizeSampler(d SizeDist) sizeSampler {
	s := sizeSampler{d: d}
	s.la, s.ha = math.Pow(float64(d.MinVCPUs), d.Alpha), math.Pow(float64(d.MaxVCPUs), d.Alpha)
	s.hala = s.ha * s.la
	s.negInvAlpha = -1 / d.Alpha
	// The 1e-9 margins dwarf the few ulps by which math.Pow strays from
	// monotone, so one bisection per bound holds for every x beyond it.
	n := min(d.MaxVCPUs-d.MinVCPUs, maxSizeGuards)
	s.guards = make([]sizeGuard, n)
	for i := range s.guards {
		k := float64(d.MinVCPUs + 1 + i)
		s.guards[i] = sizeGuard{
			hi: math.Nextafter(firstBelow(s.negInvAlpha, k*(1+1e-9)), 0),
			lo: firstBelow(s.negInvAlpha, k*(1-1e-9)),
		}
	}
	s.top = math.Inf(1)
	if n == d.MaxVCPUs-d.MinVCPUs {
		s.top = firstBelow(s.negInvAlpha, 1<<62)
	}
	return s
}

// firstBelow returns the least non-negative float64 x with Pow(x, e) < t
// for e < 0 and a finite t, or +Inf when no float64 has it. It bisects over
// the bit patterns of non-negative floats, which order as the floats do.
func firstBelow(e, t float64) float64 {
	below := func(b uint64) bool { return math.Pow(math.Float64frombits(b), e) < t }
	lo, hi := uint64(0), math.Float64bits(math.MaxFloat64) // Pow(0, e) is +Inf
	if !below(hi) {
		return math.Inf(1)
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; below(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// sample draws one vCPU count.
func (s *sizeSampler) sample(rng *rand.Rand) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return s.pareto(-(float64(u*s.ha) - float64(u*s.la) - s.ha) / s.hala)
}

// pareto is the size of a bounded-Pareto draw whose inverse-CDF argument is
// x: Pow(x, -1/Alpha), floored and clamped. sample builds x from u in (0, 1)
// so that the draw lies on [MinVCPUs, MaxVCPUs] with both truncation points
// respected exactly, unlike capping an unbounded draw, so the sampled mass
// integrates to one.
func (s *sizeSampler) pareto(x float64) int {
	n := s.d.MinVCPUs
	for _, g := range s.guards {
		if x <= g.hi {
			n++
			continue
		}
		if x >= g.lo {
			return n
		}
		return s.pow(x)
	}
	if x >= s.top {
		return n
	}
	return s.pow(x)
}

// pow is pareto by the full expression, floored into [MinVCPUs, MaxVCPUs].
func (s *sizeSampler) pow(x float64) int {
	s.pows++
	n := int(math.Floor(math.Pow(x, s.negInvAlpha)))
	if n < s.d.MinVCPUs {
		n = s.d.MinVCPUs
	}
	if n > s.d.MaxVCPUs {
		n = s.d.MaxVCPUs
	}
	return n
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
