// Package fleet is the cloud layer of the simulator: a cluster of hosts
// sharing one deterministic event clock, a VM lifecycle model (trace-driven
// arrivals, lifetimes, departures), pluggable placement policies, and live
// VM migration between hosts.
//
// The paper evaluates vSched one VM at a time against scripted co-tenant
// stressors; here contention is *organic* — colocated VMs steal from each
// other because the placement policy put them on the same threads, and
// vSched's probers observe real neighbour churn (arrivals, departures,
// migrations) instead of a square wave. Nothing in this package uses the
// host package's synthetic co-tenant types, by contract (see the test).
//
// Everything is deterministic: a Config is a pure value (the arrival trace
// is pre-generated from a seed), one Run builds one private sim.Engine, and
// the same Config always produces the same Result. Independent fleet cells
// therefore run on a worker pool with results identical to a serial run.
package fleet

import (
	"fmt"
	"sort"

	"vsched/internal/core"
	"vsched/internal/faults"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/latprof"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
	"vsched/internal/vtrace"
	"vsched/internal/workload"
)

// Config parameterises one fleet simulation cell.
type Config struct {
	// Seed drives the engine (and through it every workload's private
	// stream). The arrival trace is NOT derived from it — it is passed in
	// explicitly so several cells can replay the identical trace.
	Seed int64
	// Hosts is the cluster size. Every host gets an identical HostConfig:
	// live migration re-homes entities by thread index, and the guest's
	// topology relation lookups stay valid only because the mapping from
	// thread ID to (socket, core, slot) is the same everywhere.
	Hosts      int
	HostConfig host.Config
	// Overcommit bounds admission: a host accepts a VM while
	// committed vCPUs + requested <= Overcommit * threads. <=0 means 1.0
	// (no overcommit).
	Overcommit float64
	// Policy decides placement. Required.
	Policy Policy
	// VSched attaches the full vSched system (probers + bvs + ivh + rwc)
	// inside every VM; false is the stock-CFS baseline.
	VSched bool
	// Arrivals is the VM arrival trace, sorted by At (Run sorts defensively).
	Arrivals []Arrival
	// Horizon is how long the cell runs.
	Horizon sim.Duration
	// TelemetryEvery is the per-host steal sampling period feeding the
	// steal-aware policy and the migration controller (default 50ms).
	TelemetryEvery sim.Duration
	// Migration enables the live-migration controller when Every > 0.
	Migration MigrationConfig
	// Tracer, when non-nil, receives fleet events (and is attached to every
	// host for entity-level events).
	Tracer *vtrace.Tracer
	// Attribution attaches a latency-attribution profiler (internal/latprof)
	// to every placed VM and reports per-VM cause breakdowns in
	// Result.Attribution. Observation only: the simulation is byte-identical
	// with it on or off.
	Attribution bool
	// Telemetry, when non-nil, attaches a flight recorder (see
	// internal/telemetry) sampling the cell registry, per-host steal and
	// utilization, per-VM-class population, and the simulator itself into
	// bounded-memory time series; Result.Telemetry carries the recorder
	// after Run. Observation only, like Attribution: the simulation is
	// byte-identical with it on or off.
	Telemetry *telemetry.Config
	// Faults, when non-nil, injects the host fault schedule (see
	// internal/faults and faultplane.go): crashes kill resident VMs and take
	// the host out of admission, brownouts shrink its capacity, stalls freeze
	// its entities. Events fire at their exact scheduled instants.
	Faults *faults.Schedule
	// Recovery enables the reaction to faults: crash victims re-place through
	// a bounded retry queue with capped exponential backoff, and VMs on
	// degraded hosts evacuate by live migration. Disabled, crash victims are
	// terminally lost — the graceful-degradation baseline.
	Recovery faults.RecoveryConfig
}

// MigrationConfig tunes the live-migration controller: every Every it looks
// for the host with the highest smoothed steal rate and, if that exceeds
// MinSteal and some fitting host sits at least Margin lower, moves that
// host's cheapest VM there. The VM is blocked for Downtime (stop-and-copy
// brownout) before resuming on the destination.
type MigrationConfig struct {
	Every    sim.Duration
	MinSteal float64
	Margin   float64
	Downtime sim.Duration
	// Cooldown excludes a VM from migrant selection for this long after it
	// moved, damping ping-pong when a hotspot flips between two hosts faster
	// than the steal EMAs settle. Zero disables the guard.
	Cooldown sim.Duration
}

// Result is the fully-aggregated outcome of one cell.
type Result struct {
	Policy     string
	Guest      string // "CFS" or "vSched"
	Arrivals   int
	Placed     int
	Rejected   int
	Departed   int
	Migrations int
	// E2E merges every service VM's end-to-end request latency histogram —
	// the fleet-wide task latency distribution.
	E2E *metrics.Histogram
	// Ops counts completed operations across all VMs (requests + batch
	// iterations) inside the horizon.
	Ops uint64
	// Steal is cumulative vCPU steal time across every VM ever placed.
	Steal sim.Duration
	// Events is how many engine events the cell fired.
	Events uint64
	// Registry holds the fleet-wide instruments (fleet.* counters, the e2e
	// histogram, steal gauge) for harness artifact embedding.
	Registry *metrics.Registry
	// Attribution maps VM name to its latency-attribution profile when
	// Config.Attribution was set; nil otherwise. Cause classification is
	// exact for every VM (it depends only on the VM's own entity and guest
	// events); steal *blame* names are approximate for VMs that live-migrated
	// (see the routing note on hostState.fold).
	Attribution map[string]*latprof.Profile
	// Telemetry is the cell's flight recorder when Config.Telemetry was set;
	// nil otherwise.
	Telemetry *telemetry.Recorder
	// FaultOutcome is the fault plane's outcome. Evacuations are also
	// counted in Migrations, and conservation reads Placed == Departed +
	// Lost + PendingAtEnd + RunningAtEnd.
	FaultOutcome
}

// hostState is one host plus the fleet's bookkeeping about it. Occupancy is
// tracked by the fleet, not read back from host internals: placement is a
// control-plane decision and must not depend on instantaneous physics.
type hostState struct {
	index     int
	h         *host.Host
	occ       []int // committed vCPUs per thread
	committed int
	vms       []*fleetVM
	stealEMA  float64
	faultWindows
	// fold is the host view shared by the latency profilers of the VMs
	// *created* on this host, when attribution is on. Entity state-change
	// notifications always fire on the creation host's observer list
	// (host.Entity keeps its birth host even across live migration), so the
	// birth host — not the current one — is the stable routing key for a
	// VM's entity events, and a profiler stays attached after its VM departs
	// or crashes. The flip side: a migrated VM's profiler keeps reading this
	// fold, where thread ids in events can numerically collide with the
	// destination host's, so steal-blame names for migrated VMs are
	// approximate (causes stay exact: they derive from the VM's own entity
	// states, which follow the entity).
	fold *latprof.HostFold
}

// fleetVM is one placed VM with its lifecycle state.
type fleetVM struct {
	id      int
	name    string
	typ     VMType
	hostIdx int
	threads []int // thread indexes on the current host
	gvm     *guest.VM
	vs      *core.VSched
	inst    workload.Instance
	alive   bool
	// migrating marks the stop-and-copy brownout window so the controller
	// never double-moves a VM in flight.
	migrating bool
	// moved/lastMove feed the migration cooldown: a VM is exempt from
	// migrant selection for Migration.Cooldown after it last moved.
	moved    bool
	lastMove sim.Time
	// deadline is the VM's scheduled departure instant (zero = pinned to the
	// horizon); restarts after a crash keep the original deadline.
	deadline sim.Time
	// restarts is which crash-restart incarnation this is (0 = original).
	restarts int
	// stealSeen is the telemetry baseline: total steal across the VM's
	// vCPUs at the last sample, attributed to whichever host it sat on.
	stealSeen sim.Duration
	// prof is the VM's latency-attribution profiler (Config.Attribution).
	prof *latprof.Profiler
}

// Fleet is a cluster under simulation. Build with New, inspect Engine, then
// Run once.
type Fleet struct {
	cfg   Config
	eng   *sim.Engine
	hosts []*hostState
	vms   []*fleetVM // every VM ever placed, in placement order

	// ix holds one leaf per host, refreshed by reindex; the policy places
	// every VM through it.
	ix *HostIndex

	placed, rejected, departed, migrations int
	reg                                    *metrics.Registry
	rec                                    *telemetry.Recorder

	// Fault plane (faultplane.go). rcv is the resolved recovery policy,
	// pending the bounded restart queue. The ledger's up integral accrues
	// the fleet-wide committed vCPUs, totCommitted, at every change to it.
	rcv            faults.RecoveryConfig
	pending        []*microRetry
	ledger         recoveryLedger
	totCommitted   int
	lastCommChange sim.Time
}

// New builds the cluster. The engine is exposed before Run so callers
// (the experiment harness) can track and interrupt it.
func New(cfg Config) *Fleet {
	if cfg.Hosts <= 0 {
		panic("fleet: need at least one host")
	}
	if cfg.Policy == nil {
		panic("fleet: nil placement policy")
	}
	if cfg.Overcommit <= 0 {
		cfg.Overcommit = 1.0
	}
	if cfg.TelemetryEvery <= 0 {
		cfg.TelemetryEvery = 50 * sim.Millisecond
	}
	f := &Fleet{cfg: cfg, eng: sim.NewEngine(cfg.Seed), reg: metrics.NewRegistry()}
	f.ledger = recoveryLedger{reg: f.reg, prefix: "fleet."}
	if cfg.Recovery.Enabled {
		f.rcv = cfg.Recovery.WithDefaults()
	}
	for i := 0; i < cfg.Hosts; i++ {
		h := host.New(f.eng, cfg.HostConfig)
		hs := &hostState{
			index: i,
			h:     h,
			occ:   make([]int, h.NumThreads()),
		}
		tap := cfg.Tracer
		if cfg.Attribution {
			// Fold the host's events once for the profilers of the VMs
			// created here (see the fold routing note). One tap derives the
			// host's events once and tees each to the fold, then to the
			// shared tracer, so the ring sees what a tracer-only tap would
			// emit.
			// The tap carries only host-kind events; each VM's guest events
			// reach its profiler solely through its own tracer tee in spawn().
			hs.fold = latprof.NewHostFold()
			tap = vtrace.Tee(cfg.Tracer, hs.fold.Observe)
		}
		vtrace.AttachHost(tap, h)
		f.hosts = append(f.hosts, hs)
	}
	caps := make([]int, len(f.hosts))
	for i := range caps {
		caps[i] = f.capacity()
	}
	f.ix = NewHostIndex(caps)
	return f
}

// info renders one host's policy row. Capacity is the effective
// (fault-adjusted) bound, so policies steer around crashed and degraded hosts
// without knowing about faults.
func (f *Fleet) info(hs *hostState) HostInfo {
	return HostInfo{
		Committed: hs.committed,
		Capacity:  hs.effCap(f.capacity(), f.eng.Now()),
		StealRate: hs.stealEMA,
	}
}

// free is hs's unused effective capacity right now; negative while a
// brownout leaves the host overcommitted.
func (f *Fleet) free(hs *hostState) int {
	return hs.effCap(f.capacity(), f.eng.Now()) - hs.committed
}

// reindex refreshes one host's leaf in the placement index after its
// commitments, telemetry or fault windows changed.
func (f *Fleet) reindex(hs *hostState) {
	committed, score := indexLeaf(f.cfg.Policy, f.info(hs), f.capacity())
	f.ix.Update(hs.index, committed, score)
}

// Engine returns the cell's private engine.
func (f *Fleet) Engine() *sim.Engine { return f.eng }

// Registry returns the fleet-wide metrics registry.
func (f *Fleet) Registry() *metrics.Registry { return f.reg }

// capacity is the committed-vCPU admission bound per host.
func (f *Fleet) capacity() int {
	return int(f.cfg.Overcommit * float64(f.hosts[0].h.NumThreads()))
}

// pickThreads chooses n distinct threads on hs, least-committed first (ties
// by index), and commits one vCPU to each.
func (hs *hostState) pickThreads(n int) []int {
	idx := make([]int, len(hs.occ))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return hs.occ[idx[a]] < hs.occ[idx[b]] })
	picked := idx[:n]
	out := make([]int, n)
	copy(out, picked)
	sort.Ints(out)
	for _, t := range out {
		hs.occ[t]++
	}
	hs.committed += n
	return out
}

// release frees the threads a VM occupied.
func (hs *hostState) release(threads []int) {
	for _, t := range threads {
		hs.occ[t]--
	}
	hs.committed -= len(threads)
}

// removeVM drops vm from hs.vms keeping order (determinism: the list is
// iterated for telemetry and migration candidate selection).
func (hs *hostState) removeVM(vm *fleetVM) {
	for i, v := range hs.vms {
		if v == vm {
			hs.vms = append(hs.vms[:i], hs.vms[i+1:]...)
			return
		}
	}
}

// Run executes the cell to its horizon and aggregates the Result. Call once.
func (f *Fleet) Run() *Result {
	cfg := f.cfg
	arr := make([]Arrival, len(cfg.Arrivals))
	copy(arr, cfg.Arrivals)
	// Simultaneous arrivals tie-break by ID, not input slice order, so a
	// shuffled copy of a trace replays identically.
	sort.SliceStable(arr, func(i, j int) bool {
		if arr[i].At != arr[j].At {
			return arr[i].At < arr[j].At
		}
		return arr[i].ID < arr[j].ID
	})
	maxV := f.hosts[0].h.NumThreads()
	for i := range arr {
		// One thread per vCPU: stacking happens across VMs (overcommit),
		// never inside one.
		if a := arr[i]; a.Type.VCPUs <= 0 || a.Type.VCPUs > maxV {
			panic(fmt.Sprintf("fleet: VM type %s wants %d vCPUs on %d-thread hosts",
				a.Type.Name, a.Type.VCPUs, maxV))
		}
		if arr[i].Lifetime < 0 {
			arr[i].Lifetime = 0 // negative duration = pinned to the horizon
		}
	}
	for i := range arr {
		a := arr[i]
		f.eng.At(a.At, func() { f.arrive(a) })
	}
	f.eng.After(cfg.TelemetryEvery, f.telemetryTick)
	if cfg.Migration.Every > 0 {
		f.eng.After(cfg.Migration.Every, f.migrationTick)
	}
	f.scheduleFaults()
	if cfg.Telemetry != nil {
		f.rec = f.attachTelemetry(*cfg.Telemetry, arr)
		f.rec.Start()
	}
	f.eng.RunFor(cfg.Horizon)
	return f.collect(arr)
}

// arrive runs one arrival through the placement pipeline.
func (f *Fleet) arrive(a Arrival) {
	cfg := f.cfg
	name := fmt.Sprintf("vm%03d-%s", a.ID, a.Type.Name)
	now := f.eng.Now()
	cfg.Tracer.Emit(now, vtrace.KindVMArrive, name, int64(a.Type.VCPUs), 0, 0)
	f.reg.Counter("fleet.arrivals").Inc()

	hi := pick(f.cfg.Policy, f.ix, a.Type.VCPUs)
	if hi < 0 {
		f.rejected++
		f.reg.Counter("fleet.rejected").Inc()
		cfg.Tracer.Emit(now, vtrace.KindVMPlace, name, -1, int64(a.Type.VCPUs), 0)
		return
	}
	vm := f.spawn(a, hi, name)
	f.placed++
	f.reg.Counter("fleet.placed").Inc()
	cfg.Tracer.Emit(now, vtrace.KindVMPlace, name, int64(hi), int64(a.Type.VCPUs), int64(f.hosts[hi].committed))

	if a.Lifetime > 0 {
		vm.deadline = now.Add(a.Lifetime)
		f.eng.At(vm.deadline, func() { f.depart(vm) })
	}
}

// spawn materialises one VM incarnation on host hi: threads, guest, vSched,
// workload, bookkeeping. Shared by first placement (arrive) and crash restart
// (faultplane.go); the caller does its own counting and trace emission.
func (f *Fleet) spawn(a Arrival, hi int, name string) *fleetVM {
	cfg := f.cfg
	hs := f.hosts[hi]
	f.accrueUp(f.eng.Now())
	f.totCommitted += a.Type.VCPUs
	threads := hs.pickThreads(a.Type.VCPUs)
	hts := make([]*host.Thread, len(threads))
	for i, t := range threads {
		hts[i] = hs.h.Thread(t)
	}
	gvm := guest.NewVM(hs.h, name, hts, guest.DefaultParams())
	vm := &fleetVM{
		id: a.ID, name: name, typ: a.Type,
		hostIdx: hi, threads: threads, gvm: gvm, alive: true,
	}
	if cfg.Attribution {
		prof := hs.fold.Attach(latprof.Config{VM: name, NominalSpeed: hs.h.Config().BaseSpeed})
		vm.prof = prof
		// Tee the VM's guest events into its profiler while preserving the
		// shared tracer stream.
		gvm.SetTracer(vtrace.Tee(cfg.Tracer, prof.Observe))
	} else {
		gvm.SetTracer(cfg.Tracer)
	}
	gvm.Start()
	if cfg.VSched {
		vm.vs = core.Attach(gvm, core.AllFeatures())
	}
	vm.inst = a.Type.instantiate(vm)
	vm.inst.Start()
	hs.vms = append(hs.vms, vm)
	f.reindex(hs)
	f.vms = append(f.vms, vm)
	return vm
}

// depart destroys a VM: its workload stops (batch threads exit at the next
// iteration boundary, servers take no new requests — contention drains
// within milliseconds, like a real teardown), and its slots free
// immediately.
func (f *Fleet) depart(vm *fleetVM) {
	if !vm.alive {
		return
	}
	vm.alive = false
	vm.inst.(stopper).Stop()
	f.unplace(vm)
	f.departed++
	f.reg.Counter("fleet.departed").Inc()
	f.cfg.Tracer.Emit(f.eng.Now(), vtrace.KindVMExit, vm.name,
		int64(vm.hostIdx), int64(vm.typ.VCPUs), 0)
}

// unplace frees a dead VM's slots on its host and its share of the
// fleet-wide commitment.
func (f *Fleet) unplace(vm *fleetVM) {
	hs := f.hosts[vm.hostIdx]
	f.accrueUp(f.eng.Now())
	f.totCommitted -= vm.typ.VCPUs
	hs.release(vm.threads)
	hs.removeVM(vm)
	f.reindex(hs)
}

// stopper is the subset of workload instances the fleet can tear down; both
// Server and Parallel implement it.
type stopper interface{ Stop() }

// vmSteal sums current steal across the VM's vCPU entities.
func (vm *fleetVM) vmSteal() sim.Duration {
	var s sim.Duration
	for _, v := range vm.gvm.VCPUs() {
		s += v.Entity().Steal()
	}
	return s
}

// telemetryTick samples per-host steal and folds it into the EMA the
// steal-aware policy and migration controller consult. Steal is attributed
// to the host a VM currently sits on; a VM's baseline travels with it across
// migrations.
func (f *Fleet) telemetryTick() {
	interval := f.cfg.TelemetryEvery
	alpha := 0.4
	for _, hs := range f.hosts {
		var delta sim.Duration
		for _, vm := range hs.vms {
			cur := vm.vmSteal()
			delta += cur - vm.stealSeen
			vm.stealSeen = cur
		}
		rate := float64(delta) / (float64(interval) * float64(len(hs.occ)))
		hs.stealEMA = float64(alpha*rate) + float64((1-alpha)*hs.stealEMA)
		f.reindex(hs)
	}
	f.eng.After(interval, f.telemetryTick)
}

// collect aggregates the Result after the horizon.
func (f *Fleet) collect(arr []Arrival) *Result {
	guestName := "CFS"
	if f.cfg.VSched {
		guestName = "vSched"
	}
	// Close the availability ledger: the committed integral runs to the
	// horizon, and victims still pending accrue their outage tail. Every
	// placement chain then ends departed, lost, pending or alive.
	now := f.eng.Now()
	f.accrueUp(now)
	for _, e := range f.pending {
		f.ledger.outage(now.Sub(e.downSince).Seconds(), e.vcpus)
	}
	running := 0
	for _, vm := range f.vms {
		if vm.alive {
			running++
		}
	}
	r := &Result{
		Policy:     f.cfg.Policy.Name(),
		Guest:      guestName,
		Arrivals:   len(arr),
		Placed:     f.placed,
		Rejected:   f.rejected,
		Departed:   f.departed,
		Migrations: f.migrations,
		E2E:        f.reg.Histogram("fleet.e2e"),
		Events:     f.eng.Fired(),
		Registry:   f.reg,
		Telemetry:  f.rec,
		FaultOutcome: f.ledger.outcome("micro", census{
			entered: f.placed, departed: f.departed, pending: len(f.pending), running: running,
		}),
	}
	for _, vm := range f.vms {
		r.Ops += vm.inst.Ops()
		r.Steal += vm.vmSteal()
		if srv, ok := vm.inst.(*workload.Server); ok {
			r.E2E.Merge(srv.E2E())
		}
	}
	f.reg.Gauge("fleet.steal_seconds").Set(float64(r.Steal) / 1e9)
	f.reg.Counter("fleet.ops").Add(r.Ops)
	if f.cfg.Attribution {
		r.Attribution = make(map[string]*latprof.Profile, len(f.vms))
		now := f.eng.Now()
		for _, vm := range f.vms {
			p := vm.prof.Finish(now)
			// The conservation invariant holds fleet-wide, not just in the
			// scripted single-VM rigs: every span's components sum to its
			// wall time even across organic contention and live migration.
			if err := p.CheckConservation(); err != nil {
				panic(err)
			}
			r.Attribution[vm.name] = p
		}
	}
	return r
}
