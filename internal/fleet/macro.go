package fleet

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// The macro fleet simulator. The micro fleet (fleet.go) simulates every
// vCPU, thread and scheduler decision — priceless for fidelity, hopeless at
// 1024 hosts x 100k VM lifetimes x 48 hours. Macro keeps the control plane
// exact (the same placement policies, the same HostIndex, the same
// steal-EMA signal) and replaces the data plane with an analytic contention
// model integrated epoch by epoch:
//
//	demand D  = sum over live VMs of vcpus * per-vCPU demand weight
//	rho       = min(1, threads / D)       delivered fraction of demand
//	steal    += demand * (1 - rho) * dt   per VM, the vSched-visible signal
//	progress += rho * speed * dt          per batch vCPU, stretching makespan
//
// Everything is quantized to the epoch: arrivals in [t, t+E) place at t (in
// ascending (At, ID) order), departures due by t leave at t, and rho holds
// for the whole epoch. A batch VM whose budget drains mid-epoch stops
// accruing steal at its analytic completion instant (that instant is the
// makespan contribution) but frees its commitment at the next boundary.
//
// Scale: state is flat value-typed arrays (a 16-byte macroVM per trace VM
// and its 40-byte record in the result snapshot, one macroHost per host — no
// pointers into the engine; each host packs its live VMs' integration state
// into two dense record arrays, one per VM class, and caches their summed
// demand),
// and the epoch integration is one serial pass in host order
// that advances each host and folds it into the fleet reductions (DI,
// aggregates) as it goes. A cell is ~80 µs of work per epoch, too little to
// pay for a goroutine fan-out; parallelism lives one level up, across
// independent cells (policies, fault modes, trials).
type MacroConfig struct {
	Trace cloudgen.Trace
	// Policy places arriving VMs through the HostIndex (O(log hosts) per
	// placement for the built-in policies); nil means FirstFit.
	Policy Policy
	// Overcommit scales threads into the admission bound (default 2.0).
	Overcommit float64
	// Epoch is the integration step (default 60s of virtual time).
	Epoch sim.Duration
	// Shards is no longer used: the epoch integration always runs serially.
	// A per-epoch goroutine fan-out over host ranges cost more than it saved
	// (about 80 µs of work per epoch), so macro runs parallelize across
	// independent cells instead.
	//
	// Deprecated: ignored. It stays so callers that set it still compile.
	Shards int
	// Horizon overrides Trace.Horizon when > 0.
	Horizon sim.Duration
	// Telemetry, when non-nil, attaches a flight recorder sampling the
	// fleet-wide aggregates (fleet.macro.*) and the cell registry.
	Telemetry *telemetry.Config
	// Observe, when non-nil, is called with the cell's engine before the
	// run starts (the experiments harness uses it to track effort and
	// propagate interrupts).
	Observe func(*sim.Engine)
	// Faults, when non-nil, injects the host fault schedule: crashes kill
	// resident VMs, brownouts shrink effective capacity, stalls freeze
	// progress for an epoch's worth of time. Fault effects quantize to the
	// epoch grid the way arrivals do: an event lands at the boundary of the
	// epoch containing it, and a fault is active for an epoch iff it is
	// active at that epoch's start.
	Faults *faults.Schedule
	// Recovery enables the reaction to faults: crash victims and rejected
	// arrivals enter a bounded pending-retry queue with capped exponential
	// backoff, and VMs on degraded hosts evacuate through the placement
	// policy (the macro tier's migration mechanism). Disabled, crash
	// victims are lost and rejections are terminal — the graceful-
	// degradation baseline.
	Recovery faults.RecoveryConfig
}

// MacroResult is one macro cell's outcome.
type MacroResult struct {
	Policy   string
	Hosts    int
	Arrivals int
	Placed   int
	Rejected int
	// Lifetimes counts completed VM lifetimes (departures) inside the
	// horizon; VMs still resident at the end are not lifetimes.
	Lifetimes int
	// Events counts units of simulation work: placements, departures and
	// per-VM epoch integrations.
	Events uint64
	// DIMean / DIMax summarize the per-epoch degree of imbalance
	// (max-min)/avg of host utilization, the CloudSim load-balance metric.
	DIMean, DIMax float64
	// Makespan is the completion instant of the last batch VM (0 if none
	// completed).
	Makespan sim.Time
	// P95Steal is the 95th-percentile per-VM steal fraction
	// steal/(steal+served) over every VM that demanded CPU.
	P95Steal float64
	// TotalStealHours is fleet-wide accumulated steal in vCPU-hours.
	TotalStealHours float64
	// FaultOutcome is the fault plane's outcome; conservation reads
	// arrivals processed == Lifetimes + Lost + Rejected + PendingAtEnd +
	// RunningAtEnd.
	FaultOutcome
	// LostVCPUHours is batch progress destroyed by crashes.
	LostVCPUHours float64
	// Snapshot is the canonical byte encoding of final simulation state;
	// two runs of the same config must produce identical bytes.
	Snapshot []byte
	// Registry exposes the cell's counters; Telemetry the recorder when
	// configured.
	Registry  *metrics.Registry
	Telemetry *telemetry.Recorder
}

// VM lifecycle states for the conservation ledger: every trace VM that
// arrived is in exactly one, and result() panics if the counts don't add up.
const (
	vmUnborn    uint8 = iota // not yet arrived
	vmRunning                // placed and alive
	vmPending                // in the retry queue (crash victim or admission retry)
	vmCompleted              // departed inside the horizon
	vmLost                   // terminally lost (crash + retry budget/queue/no recovery)
	vmRejected               // terminally rejected at admission
)

// macroVM is one VM's id-indexed bookkeeping: 16 bytes, no floats. Its size,
// demand, class and budget are read from the trace VM of the same index, and
// its served, steal and work live in its host record while it is live
// and in its snapshot record (see record) otherwise.
type macroVM struct {
	depart sim.Time // service deadline; batch analytic completion once known
	host   int32    // current host; the last one once dead, 0 before placement
	// bits packs the lifecycle state (vmStateMask), the vmAlive, vmDone and
	// vmPlaced flags, and the restart count above vmRestartShift.
	bits uint32
}

// macroVM.bits layout. vmDone marks a batch VM whose budget drained and
// which awaits its boundary departure; vmPlaced marks a VM admitted at least
// once, so its snapshot record holds what it was served.
const (
	vmStateMask    = 1<<3 - 1
	vmAlive        = 1 << 3
	vmDone         = 1 << 4
	vmPlaced       = 1 << 5
	vmRestartShift = 6
	vmMaxRestarts  = math.MaxUint32 >> vmRestartShift
)

func (vm *macroVM) state() uint8         { return uint8(vm.bits & vmStateMask) }
func (vm *macroVM) setState(s uint8)     { vm.bits = vm.bits&^vmStateMask | uint32(s) }
func (vm *macroVM) has(flag uint32) bool { return vm.bits&flag != 0 }
func (vm *macroVM) restarts() uint32     { return vm.bits >> vmRestartShift }

// set turns flag on or off.
func (vm *macroVM) set(flag uint32, on bool) {
	vm.bits &^= flag
	if on {
		vm.bits |= flag
	}
}

// restarted counts one restart. A count past the packed field is a broken
// invariant: every restart needs a crash, and no schedule holds 2^26 of them
// for one VM.
func (vm *macroVM) restarted() {
	if vm.restarts() == vmMaxRestarts {
		panic(fmt.Sprintf("fleet: macro VM restarted more than %d times", vmMaxRestarts))
	}
	vm.bits += 1 << vmRestartShift
}

// macroHost is one host's compact bookkeeping.
type macroHost struct {
	threads   int32
	capacity  int32 // admission bound: overcommit * threads
	committed int32
	// dirty marks a host whose index leaf may be stale: it sits in
	// macroSim.dirty until the next boundary rewrites the leaf.
	dirty    bool
	speed    float64
	stealEMA float64
	util     float64 // last epoch's min(1, D/threads)
	// svc and bat hold the live service and batch VMs, each in placement
	// order; seq is the last placement sequence number stamped on the host,
	// so merging the two arrays by seq walks every live VM in placement
	// order.
	svc []svcRec
	bat []batRec
	seq uint32
	// demand caches the sum of the live records' loads, folded left to
	// right in placement order: an append adds its load, a removal refolds
	// the rest, so it always equals a fresh fold.
	demand float64
	// Fault windows, opened serially at epoch boundaries; a stalled host
	// integrates with rho = 0.
	faultWindows
}

// svcRec is the integration-hot state of one live service VM, and batRec
// that of one live batch VM. Each class is stored densely in its host's
// placement order, so an epoch streams the host's own records instead of
// chasing ids across the arrival-indexed m.vms, and the service sweep
// carries no class or completion branch. While the VM is live on the host,
// the record is the canonical copy of served, steal, work and done:
// writeBack encodes them into the VM's snapshot record and done flag when
// the VM departs or is killed, and result() does so for every remaining
// record before it reads the snapshot records. A service record's work is 0
// and it is never done.
type svcRec struct {
	load   float64 // vcpus * per-vCPU demand weight
	served float64
	steal  float64
	id     int32
	seq    uint32 // placement sequence number on this host
}

// batRec is a live batch VM's record: the service fields, the budget it
// has left, and whether that budget drained (the VM then idles until the
// boundary that departs it).
type batRec struct {
	svcRec
	work float64 // remaining budget in seconds
	done bool
}

// macroAgg is the fleet-wide aggregate block the telemetry source samples.
type macroAgg struct {
	alive, committed    float64
	utilMean, utilMax   float64
	di, stealEMAMean    float64
	hostsDown           float64
	hostsDegraded       float64
	hostsStalled        float64
	pendingRetry        float64
	restarts, lost      float64
	evacuations, killed float64
}

// retryEntry is one VM waiting in the bounded pending-retry queue: a crash
// victim awaiting restart, or a rejected arrival awaiting re-admission.
type retryEntry struct {
	id      int32
	admit   bool     // admission retry (never placed) vs crash restart
	attempt int32    // 1-based attempt number this entry represents
	readyAt sim.Time // boundary at/after which the attempt runs
	// remaining is a crashed service VM's unserved wall-clock lifetime,
	// resumed on restart. Batch VMs restart with their full budget (the
	// destroyed progress is lost work).
	remaining sim.Duration
	// downSince is a crash victim's kill instant, for time-to-recover and
	// outage accounting; the queue is the only place a victim waits.
	downSince sim.Time
}

type macroSim struct {
	cfg   MacroConfig
	eng   *sim.Engine
	reg   *metrics.Registry
	rec   *telemetry.Recorder
	hosts []macroHost
	vms   []macroVM
	// snap is the result snapshot, allocated at its exact size up front:
	// each VM's 40-byte record in it is the canonical home of the VM's
	// served, steal and work whenever the VM is not live (see record).
	snap []byte
	ix   *HostIndex
	// dirty lists the hosts whose index leaf may be stale, each once (see
	// mark); the next boundary rewrites exactly these leaves. open lists, in
	// ascending host order, the hosts with an open down or degraded window:
	// the only hosts whose commitment can exceed their effective capacity.
	dirty   []int32
	open    []int32
	next    int // first trace VM not yet arrived
	horizon sim.Time
	now     sim.Time // current boundary time (effective-capacity clock)

	placed, rejected, departed int
	// placedC and departedC are bound on their first increment, when a
	// registry lookup would have created them, so the registry's contents
	// and creation order stay the same.
	placedC, departedC *metrics.Counter
	events             uint64
	diSum, diMax       float64
	diEpochs           int
	makespan           sim.Time
	agg                macroAgg

	// Fault plane. sched is the injected schedule (nil = no faults), rcv
	// the recovery policy (zero = disabled), nextFault the cursor into
	// sched.Events, retryQ the bounded pending queue, lostVCPUSeconds the
	// batch progress crashes destroyed.
	sched           *faults.Schedule
	rcv             faults.RecoveryConfig
	nextFault       int
	retryQ          []retryEntry
	ledger          recoveryLedger
	lostVCPUSeconds float64

	// cal is the departure calendar: cal[k] lists the VMs due to leave at
	// boundary k (time k*Epoch; the last bucket is the horizon). A VM is
	// filed under the first boundary at or after its depart instant when it
	// is admitted, restarted, or its batch budget drains. Entries go stale
	// when a VM dies or its depart moves, and the sweep skips them. swept is
	// the first bucket not yet swept; swept buckets are released.
	cal   [][]int32
	swept int
}

// RunMacro executes one macro cell to its horizon and returns the result.
func RunMacro(cfg MacroConfig) *MacroResult {
	m := newMacroSim(cfg)
	m.eng.At(0, m.epoch)
	m.eng.Run(m.horizon)
	m.boundary(m.horizon) // final departures + arrivals bookkeeping at the edge
	return m.result()
}

// newMacroSim validates cfg, fills its defaults and builds the cell's state
// at time 0, with observers attached and no epoch scheduled yet.
func newMacroSim(cfg MacroConfig) *macroSim {
	if len(cfg.Trace.Hosts) == 0 {
		panic("fleet: macro run needs a host population")
	}
	// The tier reads each VM's size, demand, lifetime, budget and class from
	// the trace whenever it needs them, so a value outside its range would
	// silently corrupt admission accounting or served and steal: refuse it
	// by VM id before simulating anything.
	for i := range cfg.Trace.VMs {
		tv := &cfg.Trace.VMs[i]
		switch {
		case tv.VCPUs < 1 || tv.VCPUs > math.MaxInt16:
			panic(fmt.Sprintf("fleet: macro trace VM %d has %d vCPUs, want 1..%d", tv.ID, tv.VCPUs, math.MaxInt16))
		case math.IsNaN(tv.Demand) || math.IsInf(tv.Demand, 0) || tv.Demand < 0:
			panic(fmt.Sprintf("fleet: macro trace VM %d has demand %v, want finite and >= 0", tv.ID, tv.Demand))
		case tv.Lifetime < 0:
			panic(fmt.Sprintf("fleet: macro trace VM %d has lifetime %v, want >= 0", tv.ID, tv.Lifetime))
		case tv.Work < 0:
			panic(fmt.Sprintf("fleet: macro trace VM %d has work %v, want >= 0", tv.ID, tv.Work))
		case tv.Class != cloudgen.Service && tv.Class != cloudgen.Batch:
			panic(fmt.Sprintf("fleet: macro trace VM %d has class %d, want service or batch", tv.ID, tv.Class))
		}
	}
	if cfg.Overcommit <= 0 {
		cfg.Overcommit = 2.0
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 60 * sim.Second
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = cfg.Trace.Horizon
	}
	if cfg.Policy == nil {
		cfg.Policy = FirstFit{}
	}
	reg := metrics.NewRegistry()
	m := &macroSim{
		cfg:     cfg,
		eng:     sim.NewEngine(cfg.Trace.Seed),
		reg:     reg,
		horizon: sim.Time(0).Add(cfg.Horizon),
		sched:   cfg.Faults,
		ledger:  recoveryLedger{reg: reg, prefix: "fleet.macro."},
	}
	if cfg.Recovery.Enabled {
		m.rcv = cfg.Recovery.WithDefaults()
	}
	m.hosts = make([]macroHost, len(cfg.Trace.Hosts))
	caps := make([]int, len(cfg.Trace.Hosts))
	// Every leaf starts stale, so the first boundary writes them all.
	m.dirty = make([]int32, len(m.hosts))
	m.open = make([]int32, 0, len(m.hosts))
	for i, hs := range cfg.Trace.Hosts {
		c := int(cfg.Overcommit * float64(hs.Threads))
		m.hosts[i] = macroHost{
			threads:  int32(hs.Threads),
			capacity: int32(c),
			dirty:    true,
			speed:    hs.SpeedFactor,
		}
		caps[i] = c
		m.dirty[i] = int32(i)
	}
	m.vms = make([]macroVM, len(cfg.Trace.VMs))
	// Exact size: 7 words per host, 5 per VM, 24 scalars.
	m.snap = make([]byte, 8*(7*len(m.hosts)+5*len(m.vms)+24))
	m.cal = make([][]int32, m.bucket(m.horizon)+1)
	m.ix = NewHostIndex(caps)
	if cfg.Telemetry != nil {
		m.rec = telemetry.New(m.eng, *cfg.Telemetry)
		m.rec.AddSource("", telemetry.RegistrySource(m.reg))
		m.rec.AddSource("", macroSource{m})
		m.rec.Start()
	}
	if cfg.Observe != nil {
		cfg.Observe(m.eng)
	}
	return m
}

// epoch advances one integration step: boundary work (departures, arrivals,
// rescoring) then the integration of [now, now+E).
func (m *macroSim) epoch() {
	now := m.eng.Now()
	m.boundary(now)
	// Refresh the recorder's self-census gauges at the boundary so they are
	// sample-visible.
	m.rec.UpdateCensus(m.reg)
	end := now.Add(m.cfg.Epoch)
	if end > m.horizon {
		end = m.horizon
	}
	if end > now {
		m.integrate(now, end)
	}
	if end < m.horizon {
		m.eng.At(end, m.epoch)
	}
}

// boundary performs the epoch-start work at time t, in a fixed order so
// reruns cannot diverge: departures due by t, fault events quantized to
// this epoch, a rescore of the hosts marked since the last one, pending
// retries, evacuation of degraded hosts, then arrivals with At < t+E in trace
// order.
func (m *macroSim) boundary(t sim.Time) {
	m.now = t
	// Departures: sweep the calendar through this boundary's bucket. Every
	// live VM due by t is filed in one of those buckets; ids of dead VMs and
	// of VMs whose depart moved later are stale and skipped, and a restarted
	// VM filed twice leaves on its first entry. Departure order within a
	// boundary does not affect state (depart only removes and decrements).
	for k := m.bucket(t); m.swept <= k; m.swept++ {
		for _, id := range m.cal[m.swept] {
			if vm := &m.vms[id]; vm.has(vmAlive) && vm.depart <= t {
				m.depart(id)
			}
		}
		m.cal[m.swept] = nil
	}

	// Fault events landing in this epoch: crashes kill, brownouts degrade,
	// stalls freeze.
	m.applyFaults(t)

	// Rescore before any placement work, but only the hosts whose leaf may
	// have moved: departures marked theirs above, the last integration
	// marked every host whose steal EMA moved its leaf, and the window sweep
	// marks every host with an open window (every host a crash or brownout
	// struck above among them) and every host whose window just expired.
	m.sweepWindows(t)
	for _, i := range m.dirty {
		m.hosts[i].dirty = false
		m.reindexHost(int(i))
	}
	m.dirty = m.dirty[:0]

	// Pending retries due now: crash restarts and admission re-attempts,
	// oldest (readyAt, id) first.
	m.retries(t)

	// Evacuate degraded hosts through the placement policy — the macro
	// tier's migration mechanism (recovery-gated).
	m.evacuate(t)

	// Arrivals in [t, t+E), already sorted by (At, ID) in the trace.
	limit := t.Add(m.cfg.Epoch)
	for m.next < len(m.cfg.Trace.VMs) {
		tv := &m.cfg.Trace.VMs[m.next]
		if tv.At >= limit || tv.At >= m.horizon {
			break
		}
		m.place(m.next, t)
		m.next++
	}
}

// bucket returns the calendar bucket of instant d <= horizon: the index of
// the first boundary at or after d.
func (m *macroSim) bucket(d sim.Time) int {
	e := sim.Time(m.cfg.Epoch)
	return int((d + e - 1) / e)
}

// file enters VM id in the calendar under its current depart instant. A VM
// due by a boundary already swept leaves at the next one; a VM due after the
// horizon, or restarted at the horizon boundary itself, never leaves and is
// not filed.
func (m *macroSim) file(id int32) {
	d := m.vms[id].depart
	if d > m.horizon {
		return
	}
	k := max(m.bucket(d), m.swept)
	if k < len(m.cal) {
		m.cal[k] = append(m.cal[k], id)
	}
}

// mark queues host i's leaf for the next boundary's rescore. A leaf is a
// pure function of the host's commitment, steal EMA and effective
// capacity, so a change to one of them that is not reindexed on
// the spot marks the host, unless the recomputed leaf is provably the same
// (leafMoved).
func (m *macroSim) mark(i int) {
	if h := &m.hosts[i]; !h.dirty {
		h.dirty = true
		m.dirty = append(m.dirty, int32(i))
	}
}

// sweepWindows marks every host in the open set, whose effective capacity
// depends on the boundary clock, and drops the hosts whose down and degraded
// windows have both expired by t, so the boundary of expiry marks a host one
// last time. A host whose commitment still exceeds its full capacity (a
// hand-built brownout factor above 1) stays until it fits, so that evacuate
// keeps seeing it.
func (m *macroSim) sweepWindows(t sim.Time) {
	kept := m.open[:0]
	for _, i := range m.open {
		m.mark(int(i))
		if h := &m.hosts[i]; h.downUntil > t || h.degradedUntil > t || h.committed > h.capacity {
			kept = append(kept, i)
		}
	}
	m.open = kept
}

// leafMoved reports whether host i's index leaf, recomputed now, differs
// from the one the index holds. The integration asks it of every host whose
// steal EMA changed: an EMA that has stopped being fed decays for over a
// thousand epochs, while the leaf ignores it (first-fit, least-loaded) or
// absorbs it once it falls below the score's rounding (steal-aware), so
// most of those hosts' leaves have not moved.
func (m *macroSim) leafMoved(i int) bool {
	committed, score := indexLeaf(m.cfg.Policy, m.macroInfo(i), int(m.hosts[i].capacity))
	return m.ix.Free(i) != m.ix.Capacity(i)-committed ||
		math.Float64bits(m.ix.Score(i)) != math.Float64bits(score)
}

// reindexHost refreshes host i's leaf and its root path.
func (m *macroSim) reindexHost(i int) {
	committed, score := indexLeaf(m.cfg.Policy, m.macroInfo(i), int(m.hosts[i].capacity))
	m.ix.Update(i, committed, score)
}

// applyFaults applies schedule events landing in epoch [t, t+E).
func (m *macroSim) applyFaults(t sim.Time) {
	if m.sched == nil {
		return
	}
	limit := t.Add(m.cfg.Epoch)
	for m.nextFault < len(m.sched.Events) {
		ev := m.sched.Events[m.nextFault]
		if ev.At >= limit || ev.At >= m.horizon {
			break
		}
		m.nextFault++
		hi := faultHost(ev, len(m.hosts))
		h := &m.hosts[hi]
		m.events++
		m.ledger.fault(ev.Kind)
		h.open(ev)
		if ev.Kind != faults.Stall {
			// Join the open set, in ascending host order. The boundary's
			// window sweep marks the host for the rescore that follows.
			if k, found := slices.BinarySearch(m.open, int32(hi)); !found {
				m.open = slices.Insert(m.open, k, int32(hi))
			}
		}
		if ev.Kind == faults.Crash {
			// Kill in placement order: which victims overflow a full retry
			// queue depends on it.
			for i, j := 0, 0; i+j < h.live(); {
				if h.svcNext(i, j) {
					m.kill(batRec{svcRec: h.svc[i]}, t)
					i++
				} else {
					m.kill(h.bat[j], t)
					j++
				}
			}
			h.svc, h.bat = h.svc[:0], h.bat[:0]
			h.demand = 0
			h.committed = 0
		}
	}
}

// kill marks record r's VM dead after its host crashed: batch progress
// since the last (re)start is destroyed, and the VM either enters the retry
// queue (recovery) or is terminally lost. The caller drops r afterwards.
func (m *macroSim) kill(r batRec, t sim.Time) {
	id := r.id
	tv := &m.cfg.Trace.VMs[id]
	batch := tv.Class == cloudgen.Batch
	m.writeBack(r)
	vm := &m.vms[id]
	vm.set(vmAlive|vmDone, false)
	m.events++
	m.ledger.count(&m.ledger.Killed, "killed")
	if batch {
		m.lostVCPUSeconds += float64((tv.Work.Seconds() - r.work) * float64(tv.VCPUs))
	}
	if !m.rcv.Enabled {
		vm.setState(vmLost)
		m.ledger.lostAfter(0, tv.VCPUs)
		return
	}
	vm.setState(vmPending)
	var remaining sim.Duration
	if !batch {
		remaining = vm.depart.Sub(t) // > 0: departures due by t already ran
	}
	m.enqueue(retryEntry{
		id:        id,
		attempt:   1,
		readyAt:   t.Add(m.rcv.Backoff(1)),
		remaining: remaining,
		downSince: t,
	}, t)
}

// enqueue admits an entry to the bounded retry queue; overflow is
// immediately terminal (bounded restart debt is the point). The queue stays
// in (readyAt, id) order, a total order since a VM is queued at most once.
func (m *macroSim) enqueue(e retryEntry, t sim.Time) {
	if len(m.retryQ) >= m.rcv.QueueCap {
		m.terminal(e, t)
		return
	}
	q := m.retryQ
	i := sort.Search(len(q), func(k int) bool {
		return q[k].readyAt > e.readyAt || q[k].readyAt == e.readyAt && q[k].id > e.id
	})
	m.retryQ = slices.Insert(q, i, e)
	m.reg.Counter("fleet.macro.retry_queued").Inc()
}

// terminal finalizes a retry entry that ran out of road: crash victims are
// lost, admission victims are rejected. Both land in the snapshot.
func (m *macroSim) terminal(e retryEntry, t sim.Time) {
	vm := &m.vms[e.id]
	if e.admit {
		vm.setState(vmRejected)
		m.rejected++
		m.reg.Counter("fleet.macro.rejected").Inc()
		return
	}
	vm.setState(vmLost)
	m.ledger.lostAfter(t.Sub(e.downSince).Seconds(), m.cfg.Trace.VMs[e.id].VCPUs)
}

// retries runs every queue entry due at t in (readyAt, id) order. The due
// prefix is cut off the queue first; entries re-queued while it runs are
// inserted behind the cut, so the prefix is never overwritten.
func (m *macroSim) retries(t sim.Time) {
	cut := 0
	for cut < len(m.retryQ) && m.retryQ[cut].readyAt <= t {
		cut++
	}
	due := m.retryQ[:cut]
	m.retryQ = m.retryQ[cut:]
	for _, e := range due {
		hi := pick(m.cfg.Policy, m.ix, m.cfg.Trace.VMs[e.id].VCPUs)
		m.events++
		if hi < 0 {
			if int(e.attempt) >= m.rcv.MaxRetries {
				m.terminal(e, t)
			} else {
				e.attempt++
				e.readyAt = t.Add(m.rcv.Backoff(int(e.attempt)))
				m.enqueue(e, t)
			}
			continue
		}
		if e.admit {
			m.admit(int(e.id), hi, t)
		} else {
			m.restart(e, hi, t)
		}
	}
}

// restart re-places a crash victim on host hi: service VMs resume their
// remaining wall-clock lifetime, batch VMs restart their full budget.
func (m *macroSim) restart(e retryEntry, hi int, t sim.Time) {
	tv := &m.cfg.Trace.VMs[e.id]
	vm := &m.vms[e.id]
	h := &m.hosts[hi]
	h.committed += int32(tv.VCPUs)
	vm.host = int32(hi)
	vm.set(vmAlive, true)
	vm.setState(vmRunning)
	vm.restarted()
	if tv.Class == cloudgen.Batch {
		vm.depart = m.horizon
	} else {
		vm.depart = t.Add(e.remaining)
	}
	m.push(hi, m.resident(e.id))
	m.file(e.id)
	m.events++
	m.ledger.restored(t.Sub(e.downSince).Seconds(), tv.VCPUs)
	m.reindexHost(hi)
}

// evacuate drains hosts whose commitment exceeds their degraded capacity,
// newest VM first (coldest state: the record with the highest placement
// sequence number of either class), re-placing through the policy. Each
// attempt consults the migration-failure law; a failed attempt abandons the
// host until the next boundary. A VM with nowhere to go stays — graceful
// degradation: the overcommit persists and shows up as steal.
//
// Admission, restart and evacuation all place within effective capacity, so
// only a host with an open window can be over it: the scan visits the open
// set, in the ascending host order a scan of every host would take.
func (m *macroSim) evacuate(t sim.Time) {
	if !m.rcv.Enabled || m.sched == nil {
		return
	}
	for _, i := range m.open {
		h := &m.hosts[i]
		for int(h.committed) > h.effCap(int(h.capacity), m.now) && h.live() > 0 {
			batch := h.newestBat()
			var r batRec
			if batch {
				r = h.bat[len(h.bat)-1]
			} else {
				r = batRec{svcRec: h.svc[len(h.svc)-1]}
			}
			vcpus := m.cfg.Trace.VMs[r.id].VCPUs
			m.events++
			if m.ledger.evacFails(m.sched) {
				break
			}
			hi := pick(m.cfg.Policy, m.ix, vcpus)
			if hi < 0 || hi == int(i) {
				break // nowhere to go: stay overcommitted, steal rises
			}
			if batch {
				h.bat = h.bat[:len(h.bat)-1]
			} else {
				h.svc = h.svc[:len(h.svc)-1]
			}
			h.refold()
			h.committed -= int32(vcpus)
			m.hosts[hi].committed += int32(vcpus)
			m.push(hi, r)
			m.vms[r.id].host = int32(hi)
			m.ledger.count(&m.ledger.Evacuations, "evacuations")
			m.reindexHost(int(i))
			m.reindexHost(hi)
		}
	}
}

// macroInfo builds the policy row for host i. Capacity is the effective
// (fault-adjusted) bound, so policies steer around degraded hosts without
// knowing about faults.
func (m *macroSim) macroInfo(i int) HostInfo {
	h := &m.hosts[i]
	return HostInfo{
		Committed: int(h.committed),
		Capacity:  h.effCap(int(h.capacity), m.now),
		StealRate: h.stealEMA,
	}
}

// place admits trace VM idx at epoch time t. A rejection is terminal only
// without recovery; with recovery the VM queues for re-admission with the
// same backoff law crash victims use, so demand is conserved, not dropped.
func (m *macroSim) place(idx int, t sim.Time) {
	tv := &m.cfg.Trace.VMs[idx]
	hi := pick(m.cfg.Policy, m.ix, tv.VCPUs)
	m.events++
	if hi < 0 {
		vm := &m.vms[idx]
		if m.rcv.Enabled {
			vm.setState(vmPending)
			m.enqueue(retryEntry{
				id:      int32(idx),
				admit:   true,
				attempt: 1,
				readyAt: t.Add(m.rcv.Backoff(1)),
			}, t)
			return
		}
		vm.setState(vmRejected)
		m.rejected++
		m.reg.Counter("fleet.macro.rejected").Inc()
		return
	}
	m.admit(idx, hi, t)
}

// admit commits trace VM idx to host hi at time t.
func (m *macroSim) admit(idx int, hi int, t sim.Time) {
	tv := &m.cfg.Trace.VMs[idx]
	h := &m.hosts[hi]
	h.committed += int32(tv.VCPUs)
	vm := &m.vms[idx]
	vm.host = int32(hi)
	vm.bits = vmAlive | vmPlaced | uint32(vmRunning)
	if tv.Class == cloudgen.Batch {
		vm.depart = m.horizon // until the budget drains
	} else {
		vm.depart = t.Add(tv.Lifetime)
	}
	m.push(hi, m.resident(int32(idx)))
	m.file(int32(idx))
	m.placed++
	m.counter(&m.placedC, "fleet.macro.placed").Inc()
	m.reindexHost(hi)
}

// depart releases VM id's commitment and removes its record from its
// host's array for the VM's class.
func (m *macroSim) depart(id int32) {
	vm := &m.vms[id]
	vm.set(vmAlive, false)
	vm.setState(vmCompleted)
	tv := &m.cfg.Trace.VMs[id]
	h := &m.hosts[vm.host]
	h.committed -= int32(tv.VCPUs)
	m.mark(int(vm.host))
	if tv.Class == cloudgen.Batch {
		for k := range h.bat {
			if h.bat[k].id == id {
				m.writeBack(h.bat[k])
				h.bat = append(h.bat[:k], h.bat[k+1:]...)
				break
			}
		}
	} else {
		for k := range h.svc {
			if h.svc[k].id == id {
				m.writeBack(batRec{svcRec: h.svc[k]})
				h.svc = append(h.svc[:k], h.svc[k+1:]...)
				break
			}
		}
	}
	h.refold()
	m.departed++
	m.events++
	m.counter(&m.departedC, "fleet.macro.departed").Inc()
}

// counter returns the registry counter name, binding it to *c on first use.
func (m *macroSim) counter(c **metrics.Counter, name string) *metrics.Counter {
	if *c == nil {
		*c = m.reg.Counter(name)
	}
	return *c
}

// resident builds VM id's record as admit or restart places it: its load
// and full batch budget come from the trace VM, and served and steal from its
// snapshot record, which is zero before the first placement and holds the
// values at the kill after a crash. A service VM's record is the embedded
// svcRec.
func (m *macroSim) resident(id int32) batRec {
	tv := &m.cfg.Trace.VMs[id]
	r := batRec{svcRec: svcRec{load: float64(tv.VCPUs) * tv.Demand, id: id}}
	r.steal, r.served = m.recorded(id)
	if tv.Class == cloudgen.Batch {
		r.work = tv.Work.Seconds()
	}
	return r
}

// push places record r on host hi behind every record already there: it
// stamps the host's next placement sequence number, appends r to the array
// of its VM's class and adds its load to the cached demand, the same left
// fold a fresh sum in placement order performs. A sequence number past
// 2^32-1 is a broken invariant: no run places that many VMs on one host.
func (m *macroSim) push(hi int, r batRec) {
	h := &m.hosts[hi]
	if h.seq == math.MaxUint32 {
		panic(fmt.Sprintf("fleet: macro host %d placement sequence wrapped", hi))
	}
	h.seq++
	r.seq = h.seq
	if m.cfg.Trace.VMs[r.id].Class == cloudgen.Batch {
		h.bat = append(h.bat, r)
	} else {
		h.svc = append(h.svc, r.svcRec)
	}
	h.demand += r.load
}

// live returns the number of live VMs on the host.
func (h *macroHost) live() int { return len(h.svc) + len(h.bat) }

// svcNext reports whether, with the first i service and j batch records
// walked in placement order, the next record is service record i. At least
// one record must remain.
func (h *macroHost) svcNext(i, j int) bool {
	return j == len(h.bat) || i < len(h.svc) && h.svc[i].seq < h.bat[j].seq
}

// newestBat reports whether the host's newest record, which must exist, is
// a batch record.
func (h *macroHost) newestBat() bool {
	return len(h.svc) == 0 || len(h.bat) > 0 && h.bat[len(h.bat)-1].seq > h.svc[len(h.svc)-1].seq
}

// refold recomputes the cached demand after a removal, left to right over
// the remaining records in placement order. Subtracting the departed load
// would round differently from the fold that built the sum.
func (h *macroHost) refold() {
	d := 0.0
	for i, j := 0, 0; i+j < h.live(); {
		if h.svcNext(i, j) {
			d += h.svc[i].load
			i++
		} else {
			d += h.bat[j].load
			j++
		}
	}
	h.demand = d
}

// record returns VM id's 40-byte snapshot record: steal, served and work
// (float64 bits), then its flags and state words, which snapshot fills.
func (m *macroSim) record(id int32) []byte {
	off := 8 * (7*len(m.hosts) + 5*int(id))
	return m.snap[off : off+40 : off+40]
}

// recorded decodes the steal and served held in VM id's snapshot record.
func (m *macroSim) recorded(id int32) (steal, served float64) {
	rec := m.record(id)
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[0:])),
		math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
}

// writeBack encodes record r's canonical fields into its VM's snapshot
// record and done flag, which hold them from now until a restart.
func (m *macroSim) writeBack(r batRec) {
	rec := m.record(r.id)
	binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(r.steal))
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r.served))
	binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(r.work))
	m.vms[r.id].set(vmDone, r.done)
}

// integrate advances every host through [t0, t1) in one pass in host order.
// Each host's contention step is followed at once by its batch completions
// and its share of the fleet reductions (work units, DI, aggregates), so
// every float operation happens in the same order as a separate reduction
// pass over the hosts would do it.
func (m *macroSim) integrate(t0, t1 sim.Time) {
	dt := t1.Sub(t0).Seconds()
	minU, maxU, sumU := math.Inf(1), math.Inf(-1), 0.0
	sumSteal, sumCommitted, alive := 0.0, 0.0, 0.0
	down, degraded, stalled := 0.0, 0.0, 0.0
	for i := range m.hosts {
		h := &m.hosts[i]
		m.events += uint64(h.live()) + 1
		ema := h.stealEMA
		m.advance(h, t0, t1, dt)
		if h.stealEMA != ema && m.leafMoved(i) {
			m.mark(i)
		}
		u := h.util
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
		sumU += u
		sumSteal += h.stealEMA
		sumCommitted += float64(h.committed)
		alive += float64(h.live())
		if h.downUntil > t0 {
			down++
		} else if h.degradedUntil > t0 {
			degraded++
		}
		if h.stallUntil > t0 {
			stalled++
		}
	}
	// Availability ledger: committed vCPU-seconds delivered-or-placed this
	// epoch. The down side accrues per crash victim at restart/loss time.
	m.ledger.up(sumCommitted, dt)
	n := float64(len(m.hosts))
	di := 0.0
	if sumU > 0 {
		di = (maxU - minU) / (sumU / n)
		m.diSum += di
		m.diEpochs++
		if di > m.diMax {
			m.diMax = di
		}
	}
	m.agg = macroAgg{
		alive:         alive,
		committed:     sumCommitted,
		utilMean:      sumU / n,
		utilMax:       maxU,
		di:            di,
		stealEMAMean:  sumSteal / n,
		hostsDown:     down,
		hostsDegraded: degraded,
		hostsStalled:  stalled,
		pendingRetry:  float64(len(m.retryQ)),
		restarts:      float64(m.ledger.Restarts),
		lost:          float64(m.ledger.Lost),
		evacuations:   float64(m.ledger.Evacuations),
		killed:        float64(m.ledger.Killed),
	}
	m.reg.Counter("fleet.macro.epochs").Inc()
}

// advance runs host h's contention step over [t0, t1), dt seconds long. A
// batch VM whose budget drains lifts its analytic completion instant into
// the makespan and is filed in the calendar under t1, the boundary that ends
// this epoch.
func (m *macroSim) advance(h *macroHost, t0, t1 sim.Time, dt float64) {
	const alpha = 0.4 // same smoothing the micro fleet's steal EMA uses
	// Effective compute for this epoch: zero while crashed or stalled (stall
	// = all demand steals, nothing progresses), degradeFactor x threads
	// while browned out.
	effT := float64(h.threads)
	if h.downUntil > t0 || h.stallUntil > t0 {
		effT = 0
	} else if h.degradedUntil > t0 {
		effT = h.degradeFactor * float64(h.threads)
	}
	demand := h.demand
	rho := 1.0
	util := 0.0
	if effT <= 0 {
		rho = 0
		if demand > 0 {
			util = 1
		}
	} else {
		if demand > effT {
			rho = effT / demand
		}
		util = demand / effT
		if util > 1 {
			util = 1
		}
	}
	h.util = util
	target := 0.0
	if demand > 0 {
		target = 1 - rho
	}
	h.stealEMA = float64(alpha*target) + float64((1-alpha)*h.stealEMA)
	miss := 1 - rho
	// Service sweep: no class branch, no division. Uncontended (rho == 1, so
	// miss == 0), served gains req*1 == req, and steal gains req*0 == +0,
	// which leaves it unchanged because steal is never -0: the sweep skips
	// both products and the steal store without moving a bit.
	svc := h.svc
	if miss == 0 {
		for k := range svc {
			svc[k].served += float64(svc[k].load * dt)
		}
	} else {
		for k := range svc {
			r := &svc[k]
			req := r.load * dt
			r.served += float64(req * rho)
			r.steal += float64(req * miss)
		}
	}
	// Batch sweep: a record runs until its budget drains.
	rate := rho * h.speed // per-vCPU batch progress per second
	bat := h.bat
	for k := range bat {
		r := &bat[k]
		if r.done {
			// Budget drained in a prior epoch; idle until the boundary. Its
			// zero-length span would add +0 to served and steal, which are
			// never -0, so skipping it changes no bit.
			continue
		}
		span := dt
		if need := r.work / rate; need < span {
			span = need
			r.work = 0
			r.done = true
			// The departure itself quantizes to the epoch boundary.
			if done := t0.Add(sim.Duration(span * float64(sim.Second))); done > m.makespan {
				m.makespan = done
			}
			m.vms[r.id].depart = t1
			m.file(r.id)
		} else {
			r.work -= float64(rate * span)
		}
		req := r.load * span
		r.served += float64(req * rho)
		r.steal += float64(req * miss)
	}
}

// result finalizes counters, percentiles and the canonical snapshot, and
// enforces the conservation law: every arrival is in exactly one terminal or
// live state — nothing is lost unaccounted.
func (m *macroSim) result() *MacroResult {
	// Each write-back touches only its own VM's record, so these walks need
	// no placement-order merge.
	for i := range m.hosts {
		for _, r := range m.hosts[i].svc {
			m.writeBack(batRec{svcRec: r})
		}
		for _, r := range m.hosts[i].bat {
			m.writeBack(r)
		}
	}
	fracs := make([]float64, 0, m.placed)
	totalSteal := 0.0
	for i := range m.vms {
		if !m.vms[i].has(vmPlaced) {
			continue
		}
		steal, served := m.recorded(int32(i))
		totalSteal += steal
		if tot := steal + served; tot > 0 {
			fracs = append(fracs, steal/tot)
		}
	}
	sort.Float64s(fracs)
	p95 := 0.0
	if len(fracs) > 0 {
		idx := (len(fracs) * 95) / 100
		if idx >= len(fracs) {
			idx = len(fracs) - 1
		}
		p95 = fracs[idx]
	}
	diMean := 0.0
	if m.diEpochs > 0 {
		diMean = m.diSum / float64(m.diEpochs)
	}

	// Walk the arrived VMs for the live states.
	var running, pending int
	for i := 0; i < m.next; i++ {
		switch m.vms[i].state() {
		case vmRunning:
			running++
		case vmPending:
			pending++
		}
	}
	// Crash victims still pending at the horizon accrue their outage tail,
	// in ascending VM id: the order of the ledger's float sum. Every pending
	// VM waits in the queue; admission retries never ran and have no outage.
	waiting := slices.Clone(m.retryQ)
	slices.SortFunc(waiting, func(a, b retryEntry) int { return cmp.Compare(a.id, b.id) })
	for _, e := range waiting {
		if !e.admit {
			m.ledger.outage(m.horizon.Sub(e.downSince).Seconds(), m.cfg.Trace.VMs[e.id].VCPUs)
		}
	}
	out := m.ledger.outcome("macro", census{
		entered: m.next, departed: m.departed, rejected: m.rejected, pending: pending, running: running,
	})

	return &MacroResult{
		Policy:          m.cfg.Policy.Name(),
		Hosts:           len(m.hosts),
		Arrivals:        len(m.cfg.Trace.VMs),
		Placed:          m.placed,
		Rejected:        m.rejected,
		Lifetimes:       m.departed,
		Events:          m.events,
		DIMean:          diMean,
		DIMax:           m.diMax,
		Makespan:        m.makespan,
		P95Steal:        p95,
		TotalStealHours: totalSteal / 3600,
		FaultOutcome:    out,
		LostVCPUHours:   m.lostVCPUSeconds / 3600,
		Snapshot:        m.snapshot(),
		Registry:        m.reg,
		Telemetry:       m.rec,
	}
}

// snapshot completes the canonical encoding of final state: every host's
// commitment, steal EMA, utilization and fault windows, every VM's
// steal/served/work bits (already in its record) and flags, and the scalar
// outcome counters. Two runs that diverge anywhere — one float op, one
// placement, one departure order — produce different bytes.
func (m *macroSim) snapshot() []byte {
	buf, off := m.snap, 0
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for i := range m.hosts {
		h := &m.hosts[i]
		u64(uint64(uint32(h.committed)))
		f64(h.stealEMA)
		f64(h.util)
		u64(uint64(h.downUntil))
		u64(uint64(h.degradedUntil))
		u64(uint64(h.stallUntil))
		f64(h.degradeFactor)
	}
	for i := range m.vms {
		vm := &m.vms[i]
		off += 24 // steal, served, work: written by writeBack
		flags := uint64(vm.host) << 8
		if vm.has(vmAlive) {
			flags |= 1
		}
		if vm.has(vmDone) {
			flags |= 2
		}
		u64(flags)
		u64(uint64(vm.state()) | uint64(vm.restarts())<<8)
	}
	u64(uint64(m.placed))
	u64(uint64(m.rejected))
	u64(uint64(m.departed))
	u64(uint64(m.makespan))
	f64(m.diSum)
	f64(m.diMax)
	u64(uint64(m.diEpochs))
	u64(m.events)
	// Fault plane: terminal rejections above plus the full recovery ledger,
	// so a single diverging kill, restart or evacuation flips the digest.
	l := &m.ledger
	u64(uint64(l.Crashes))
	u64(uint64(l.Brownouts))
	u64(uint64(l.Stalls))
	u64(uint64(l.Killed))
	u64(uint64(l.Restarts))
	u64(uint64(l.Lost))
	u64(uint64(l.Evacuations))
	u64(uint64(l.EvacFailures))
	u64(l.migAttempts)
	u64(uint64(len(m.retryQ)))
	f64(l.upVCPUSeconds)
	f64(l.downVCPUSeconds)
	f64(m.lostVCPUSeconds)
	f64(l.ttrSum)
	f64(l.MTTRMax)
	u64(uint64(l.ttrCount))
	return buf
}

// SnapshotDigest returns a short FNV-64a hex digest of a snapshot, for logs
// and reports.
func SnapshotDigest(snap []byte) string {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range snap {
		h ^= uint64(b)
		h *= prime
	}
	return fmt.Sprintf("%016x", h)
}

// macroSource samples the fleet-wide aggregates after each epoch.
type macroSource struct{ m *macroSim }

// Collect implements telemetry.Source. Aggregate-only by design: at 1024
// hosts, per-host series would defeat the recorder's memory bound.
func (s macroSource) Collect(now sim.Time, emit func(string, float64)) {
	a := &s.m.agg
	emit("fleet.macro.vms_alive", a.alive)
	emit("fleet.macro.committed", a.committed)
	emit("fleet.macro.util_mean", a.utilMean)
	emit("fleet.macro.util_max", a.utilMax)
	emit("fleet.macro.di", a.di)
	emit("fleet.macro.steal_ema_mean", a.stealEMAMean)
	emit("fleet.macro.hosts_down", a.hostsDown)
	emit("fleet.macro.hosts_degraded", a.hostsDegraded)
	emit("fleet.macro.hosts_stalled", a.hostsStalled)
	emit("fleet.macro.pending_retry", a.pendingRetry)
	emit("fleet.macro.restarts_total", a.restarts)
	emit("fleet.macro.lost_total", a.lost)
	emit("fleet.macro.evacuations_total", a.evacuations)
	emit("fleet.macro.killed_total", a.killed)
}
