// Package host models the physical machine and the hypervisor's CPU
// scheduler — the layer below the guest that the paper's vSched runs inside
// of but cannot modify.
//
// The model is a KVM-like setup: a topology of sockets, cores and SMT
// hardware threads; a per-thread CFS-style scheduler with weights, wakeup
// preemption and minimum-granularity time slices; CPU bandwidth control
// (quota/period throttling); and an effective-speed model capturing SMT
// sibling contention and a simple turbo/DVFS boost. Everything a guest may
// legitimately observe in a real cloud VM — steal time, inactive periods,
// preemptions, capacity fluctuation — is an emergent artifact of this
// scheduler, not an oracle value.
//
// Entities scheduled on hardware threads are either guest vCPUs (driven by
// internal/guest via the Client interface) or synthetic contenders
// representing co-located tenants (see contender.go).
package host

import (
	"fmt"

	"vsched/internal/cachemodel"
	"vsched/internal/sim"
)

// Config describes the physical machine and host scheduler parameters.
type Config struct {
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int // 1 or 2

	// BaseSpeed is the work rate of a thread in cycles per nanosecond with
	// no SMT contention and no turbo (i.e. nominal frequency).
	BaseSpeed float64
	// SMTFactor is the per-thread speed multiplier when both siblings of a
	// core are busy (each runs slower than alone). 1.0 disables SMT
	// contention.
	SMTFactor float64
	// TurboFactor is the speed multiplier applied when a core is the only
	// busy core in its socket (opportunistic frequency boost). 1.0 disables.
	TurboFactor float64

	// MinGranularity is the host CFS time slice quantum: how long an entity
	// runs before the scheduler considers switching.
	MinGranularity sim.Duration
	// WakeupGranularity limits wakeup preemption: a waking entity preempts
	// the running one only if its vruntime lag exceeds this.
	WakeupGranularity sim.Duration
	// BandwidthPeriod is the CPU bandwidth control refill period.
	BandwidthPeriod sim.Duration
}

// DefaultConfig mirrors the paper's testbed at the fidelity the simulation
// needs: dual-thread cores, mild SMT contention, small turbo headroom, and
// Linux-like host scheduler granularities.
func DefaultConfig() Config {
	return Config{
		Sockets:           4,
		CoresPerSocket:    20,
		ThreadsPerCore:    2,
		BaseSpeed:         2.0,
		SMTFactor:         0.62,
		TurboFactor:       1.15,
		MinGranularity:    3 * sim.Millisecond,
		WakeupGranularity: 1 * sim.Millisecond,
		BandwidthPeriod:   100 * sim.Millisecond,
	}
}

// TopologyConfig is DefaultConfig with the given topology. A flat host has
// SMTFactor and TurboFactor 1, so every thread runs at exactly BaseSpeed.
func TopologyConfig(sockets, cores, threadsPerCore int, flat bool) Config {
	cfg := DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = sockets, cores, threadsPerCore
	if flat {
		cfg.SMTFactor, cfg.TurboFactor = 1, 1
	}
	return cfg
}

// ThreadID identifies a hardware thread within a Host.
type ThreadID int

// Host is the physical machine plus hypervisor scheduler state.
type Host struct {
	eng      *sim.Engine
	cfg      Config
	threads  []*Thread
	entities []*Entity
	seq      uint64
	// busyCoreCount[s] is the number of cores in socket s with at least one
	// running entity; maintained incrementally for the turbo model.
	busyCoreCount []int
	// observers see every state transition of every entity — including
	// entities created after they were installed. The vtrace package taps
	// the whole host through this hook; several tracers (or a tracer plus a
	// latency-attribution profiler) may stack.
	observers []func(e *Entity, now sim.Time, from, to EntityState)
}

// New builds a host with the given configuration. It validates the topology
// and panics on nonsensical configurations (these are programming errors in
// experiment setup, not runtime conditions).
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.Sockets <= 0 || cfg.CoresPerSocket <= 0 || cfg.ThreadsPerCore <= 0 || cfg.ThreadsPerCore > 2 {
		panic(fmt.Sprintf("host: invalid topology %d/%d/%d", cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore))
	}
	if cfg.BaseSpeed <= 0 {
		panic("host: BaseSpeed must be positive")
	}
	if cfg.SMTFactor <= 0 || cfg.SMTFactor > 1 {
		panic("host: SMTFactor must be in (0,1]")
	}
	if cfg.TurboFactor < 1 {
		panic("host: TurboFactor must be >= 1")
	}
	if cfg.MinGranularity <= 0 {
		panic("host: MinGranularity must be positive")
	}
	if cfg.BandwidthPeriod <= 0 {
		panic("host: BandwidthPeriod must be positive")
	}
	h := &Host{eng: eng, cfg: cfg, busyCoreCount: make([]int, cfg.Sockets)}
	n := cfg.Sockets * cfg.CoresPerSocket * cfg.ThreadsPerCore
	h.threads = make([]*Thread, n)
	id := 0
	for s := 0; s < cfg.Sockets; s++ {
		for c := 0; c < cfg.CoresPerSocket; c++ {
			for t := 0; t < cfg.ThreadsPerCore; t++ {
				th := &Thread{
					host:        h,
					id:          ThreadID(id),
					socket:      s,
					core:        c,
					slot:        t,
					speedFactor: 1.0,
				}
				th.sliceFn = th.onSlice
				h.threads[id] = th
				if t == 1 {
					th.sibling, h.threads[id-1].sibling = h.threads[id-1], th
				}
				id++
			}
		}
	}
	return h
}

// Engine returns the simulation engine the host runs on.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// NumThreads returns the number of hardware threads.
func (h *Host) NumThreads() int { return len(h.threads) }

// Thread returns the i-th hardware thread (panics when out of range).
func (h *Host) Thread(i int) *Thread { return h.threads[i] }

// ThreadAt returns the hardware thread at (socket, core, slot).
func (h *Host) ThreadAt(socket, core, slot int) *Thread {
	idx := (socket*h.cfg.CoresPerSocket+core)*h.cfg.ThreadsPerCore + slot
	return h.threads[idx]
}

// Relation returns the topological relation between two hardware threads:
// Self for the same thread (stacked entities), SMT for siblings of one core,
// Socket for distinct cores in one socket, and Cross otherwise.
func (h *Host) Relation(a, b ThreadID) cachemodel.Relation {
	ta, tb := h.threads[a], h.threads[b]
	switch {
	case ta == tb:
		return cachemodel.Self
	case ta.socket == tb.socket && ta.core == tb.core:
		return cachemodel.SMT
	case ta.socket == tb.socket:
		return cachemodel.Socket
	default:
		return cachemodel.Cross
	}
}

// Entities returns all entities ever registered (vCPUs and contenders).
func (h *Host) Entities() []*Entity { return h.entities }

// AddObserver appends a host-wide state-transition observer without
// disturbing observers already installed. Host observers fire in the order
// added, after any per-entity observers, for every entity — including ones
// created later — and must not synchronously change schedulability (same
// contract as Client callbacks).
func (h *Host) AddObserver(fn func(e *Entity, now sim.Time, from, to EntityState)) {
	h.observers = append(h.observers, fn)
}

// busyCores returns the number of busy cores in socket s (maintained
// incrementally by the threads).
func (h *Host) busyCores(s int) int { return h.busyCoreCount[s] }

// refreshSocketSpeeds recomputes the effective speed of every running entity
// in socket s, in thread order, and notifies clients whose speed changed.
// Called when the socket's turbo predicate flips.
func (h *Host) refreshSocketSpeeds(s int) {
	per := h.cfg.CoresPerSocket * h.cfg.ThreadsPerCore
	base := s * per
	for i := base; i < base+per; i++ {
		h.threads[i].refreshSpeed()
	}
}
