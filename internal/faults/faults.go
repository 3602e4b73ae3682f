// Package faults is the failure plane of the simulator: a deterministic,
// seed-derived schedule of host-level faults that both fleet tiers (the
// per-tick micro fleet and the epoch-quantized macro fleet) inject, plus the
// recovery policy knobs (retry budget, capped exponential backoff, bounded
// pending queue) the fleet layer applies on top.
//
// Production placement is dominated by what goes wrong — maintenance, host
// churn, capacity loss (see the SAP Cloud Infrastructure characterization,
// arXiv:2510.23911) — so a reproduction that never loses a host can't be
// trusted on policy questions. Three fault kinds cover the useful regimes:
//
//   - Crash: the host goes away entirely for Duration. Every resident VM is
//     killed; with recovery enabled the fleet re-places them elsewhere with
//     capped exponential backoff, otherwise their remaining work is lost.
//   - Brownout: the host keeps running but its effective capacity drops to
//     Factor * capacity for Duration (throttled clocks, failed DIMM bank,
//     noisy maintenance). Placement must steer around it; recovery may
//     evacuate VMs that no longer fit the degraded bound.
//   - Stall: the host freezes for Duration (long SMI, live-migration pause
//     of the *physical* host, network partition). Nothing is lost, nothing
//     progresses, and every resident vCPU sees pure steal — the
//     degraded-signal regime adaptive controllers must survive.
//
// On top of host faults, the schedule carries a migration-failure
// probability: each evacuation/migration attempt can deterministically fail
// (hash of the schedule seed and a per-tier attempt counter), modelling
// stop-and-copy aborts.
//
// Everything is a pure function of (seed, Config): Generate draws each
// host's fault process from its own FNV-derived sub-stream, so schedules are
// stable under fleet-size changes and identical across runs, tiers, and
// shard counts. Those sub-streams are many and short: a 1024-host schedule
// seeds 3,072 of them, and most stop after one draw because the host sees
// no event of that kind. math/rand's default source spends 1,841 MINSTD
// steps on every Seed, so Generate draws from lazySource instead, which
// returns the same values for every seed but seeds in O(1) and builds only
// the register words its draws read (source.go).
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"vsched/internal/sim"
)

// Kind is the fault type.
type Kind uint8

const (
	// Crash takes the host down entirely; resident VMs are killed.
	Crash Kind = iota
	// Brownout degrades effective capacity to Factor*capacity.
	Brownout
	// Stall freezes the host: no progress, all demand steals.
	Stall
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Brownout:
		return "brownout"
	case Stall:
		return "stall"
	}
	return "?"
}

// Event is one scheduled host fault. The host is affected for
// [At, At+Duration); Factor is the degraded-capacity multiplier for
// Brownout events (0 for Crash — capacity is gone — and unused for Stall).
type Event struct {
	At       sim.Time
	Host     int
	Kind     Kind
	Duration sim.Duration
	Factor   float64
}

// Until is the instant the fault clears.
func (e Event) Until() sim.Time { return e.At.Add(e.Duration) }

// Config parameterises Generate. Each kind is an independent per-host
// renewal process: exponential gaps with the given MTBF (0 disables the
// kind), then a duration drawn uniformly in [0.5, 1.5) x the mean (0 takes
// the default). Negative MTBFs and means are rejected. Gaps are
// measured from the end of the previous same-kind fault, so same-kind events
// never overlap on one host (different kinds may).
type Config struct {
	// CrashMTBF is the per-host mean time between crashes; CrashDowntime the
	// mean outage length (default 10 min).
	CrashMTBF     sim.Duration
	CrashDowntime sim.Duration
	// BrownoutMTBF / BrownoutMean shape capacity-degradation windows
	// (default mean 30 min); the degraded-capacity factor is drawn uniformly
	// from [FactorLo, FactorHi) (default [0.3, 0.7)).
	BrownoutMTBF sim.Duration
	BrownoutMean sim.Duration
	FactorLo     float64
	FactorHi     float64
	// StallMTBF / StallMean shape freeze windows (default mean 2 min).
	StallMTBF sim.Duration
	StallMean sim.Duration
	// MigFailProb is the probability any single migration or evacuation
	// attempt fails (in [0, 1)).
	MigFailProb float64
}

func (c Config) withDefaults() Config {
	if c.CrashDowntime == 0 {
		c.CrashDowntime = 10 * 60 * sim.Second
	}
	if c.BrownoutMean == 0 {
		c.BrownoutMean = 30 * 60 * sim.Second
	}
	if c.FactorLo == 0 && c.FactorHi == 0 {
		c.FactorLo, c.FactorHi = 0.3, 0.7
	}
	if c.StallMean == 0 {
		c.StallMean = 2 * 60 * sim.Second
	}
	return c
}

// validate panics on configurations that cannot be sampled meaningfully;
// these are programming errors, not data.
func (c Config) validate() {
	for _, f := range []struct {
		name string
		v    sim.Duration
	}{
		{"CrashMTBF", c.CrashMTBF}, {"CrashDowntime", c.CrashDowntime},
		{"BrownoutMTBF", c.BrownoutMTBF}, {"BrownoutMean", c.BrownoutMean},
		{"StallMTBF", c.StallMTBF}, {"StallMean", c.StallMean},
	} {
		if f.v < 0 {
			panic(fmt.Sprintf("faults: %s %v is negative", f.name, f.v))
		}
	}
	if c.FactorLo <= 0 || c.FactorHi > 1 || c.FactorHi < c.FactorLo {
		panic(fmt.Sprintf("faults: brownout factor range [%v,%v] outside (0,1]", c.FactorLo, c.FactorHi))
	}
	if c.MigFailProb < 0 || c.MigFailProb >= 1 {
		panic(fmt.Sprintf("faults: migration failure probability %v outside [0,1)", c.MigFailProb))
	}
}

// Schedule is the generated fault plan: events sorted by (At, Host, Kind),
// plus the migration-failure law. A zero Schedule (no events, zero
// probability) is a valid "no faults" plan.
type Schedule struct {
	Seed        int64
	MigFailProb float64
	Events      []Event
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Events) == 0 && s.MigFailProb == 0)
}

// fnv1a folds a sequence of 64-bit words through FNV-1a.
func fnv1a(words ...uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Generate produces the fault schedule for a fleet of hosts over horizon.
// Deterministic: host h's kind-k process draws from a private sub-stream
// seeded by FNV(seed, h, k), so adding hosts or kinds never perturbs the
// events of existing ones. One Rand is reseeded per sub-stream rather than
// allocated per sub-stream: Float64 and ExpFloat64 keep no state outside
// the source, so each reseed reproduces the sub-stream a fresh Rand would.
// Its source is a lazySource, the same stream as rand.NewSource: a
// sub-stream draws one to three values, which math/rand's Seed (a
// 1,841-step MINSTD chain and 607 stores) dwarfed; lazySource's Seed is O(1).
func Generate(seed int64, hosts int, horizon sim.Duration, cfg Config) Schedule {
	cfg = cfg.withDefaults()
	cfg.validate()
	if hosts <= 0 || horizon <= 0 {
		panic(fmt.Sprintf("faults: need positive hosts (%d) and horizon (%v)", hosts, horizon))
	}
	s := Schedule{Seed: seed, MigFailProb: cfg.MigFailProb}
	type proc struct {
		kind Kind
		mtbf sim.Duration
		mean sim.Duration
	}
	procs := []proc{
		{Crash, cfg.CrashMTBF, cfg.CrashDowntime},
		{Brownout, cfg.BrownoutMTBF, cfg.BrownoutMean},
		{Stall, cfg.StallMTBF, cfg.StallMean},
	}
	rng := rand.New(new(lazySource))
	for h := 0; h < hosts; h++ {
		for _, p := range procs {
			if p.mtbf == 0 {
				continue
			}
			rng.Seed(int64(fnv1a(uint64(seed), uint64(h), uint64(p.kind))))
			var t sim.Time
			for {
				t = t.Add(sim.Duration(rng.ExpFloat64() * float64(p.mtbf)))
				if t >= sim.Time(horizon) {
					break
				}
				dur := sim.Duration((0.5 + rng.Float64()) * float64(p.mean))
				if dur < sim.Second {
					dur = sim.Second
				}
				ev := Event{At: t, Host: h, Kind: p.kind, Duration: dur}
				if p.kind == Brownout {
					ev.Factor = cfg.FactorLo + rng.Float64()*(cfg.FactorHi-cfg.FactorLo)
				}
				s.Events = append(s.Events, ev)
				t = t.Add(dur) // renewal from the end: same-kind faults never overlap
			}
		}
	}
	sort.Slice(s.Events, func(a, b int) bool {
		ea, eb := s.Events[a], s.Events[b]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		if ea.Host != eb.Host {
			return ea.Host < eb.Host
		}
		return ea.Kind < eb.Kind
	})
	return s
}

// MigrationFails decides attempt number n (each tier keeps its own counter,
// incremented per attempt): a pure hash of (seed, n) against MigFailProb, so
// the verdict sequence is identical across serial/sharded runs and
// independent of wall time.
func (s *Schedule) MigrationFails(attempt uint64) bool {
	if s == nil || s.MigFailProb <= 0 {
		return false
	}
	h := fnv1a(uint64(s.Seed)^0x9e3779b97f4a7c15, attempt)
	return float64(h>>11)/(1<<53) < s.MigFailProb
}

// RecoveryConfig tunes the fleet's reaction to faults. Disabled means
// faults still fire but nothing is re-placed: crashed VMs are lost, rejected
// arrivals stay rejected — the graceful-degradation baseline.
type RecoveryConfig struct {
	Enabled bool
	// MaxRetries bounds re-placement attempts per VM (default 8); a VM whose
	// budget drains is terminally lost (crash victims) or terminally
	// rejected (admission victims).
	MaxRetries int
	// BaseBackoff/MaxBackoff shape the capped exponential backoff between
	// attempts: min(Base * 2^(attempt-1), Max). Defaults 60s / 15min.
	BaseBackoff sim.Duration
	MaxBackoff  sim.Duration
	// QueueCap bounds the pending-retry queue (default 4096); overflow is
	// immediately terminal. A bounded queue keeps degraded fleets degraded
	// instead of hoarding unbounded restart debt.
	QueueCap int
}

// WithDefaults fills zero fields.
func (rc RecoveryConfig) WithDefaults() RecoveryConfig {
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = 8
	}
	if rc.BaseBackoff <= 0 {
		rc.BaseBackoff = 60 * sim.Second
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 15 * 60 * sim.Second
	}
	if rc.QueueCap <= 0 {
		rc.QueueCap = 4096
	}
	return rc
}

// Backoff is the delay before 1-based attempt n: capped exponential.
func (rc RecoveryConfig) Backoff(attempt int) sim.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := rc.BaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= rc.MaxBackoff {
			return rc.MaxBackoff
		}
	}
	if d > rc.MaxBackoff {
		d = rc.MaxBackoff
	}
	return d
}
