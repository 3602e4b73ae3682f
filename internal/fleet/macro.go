package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/metrics"
	"vsched/internal/progress"
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
// Scale: state is flat value-typed arrays (one macroVM, one macroHost per
// entity — no pointers into the engine; each host packs its live VMs'
// integration state into a dense slice of resident records and caches their
// summed demand), and the epoch integration is one serial pass in host order
// that advances each host and folds it into the fleet reductions (DI,
// aggregates) as it goes. A cell is ~80 µs of work per epoch, too little to
// pay for a goroutine fan-out; parallelism lives one level up, across
// independent cells (policies, fault modes, trials).
type MacroConfig struct {
	Trace cloudgen.Trace
	// Policy places arriving VMs. IndexedPolicy implementations go through
	// the HostIndex (O(log hosts) per placement); plain policies fall back
	// to the linear snapshot scan.
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
	// Obs, when non-nil, receives structured run progress (run start/done,
	// per-epoch conservation ledgers, fault and recovery events) and mirror
	// snapshots of the cell registry, fleet aggregates and engine self-census
	// for live HTTP observation. Publishing is inert by construction: every
	// publish happens at a serial safepoint (epoch boundaries) through the
	// lock-free bus/mirror handoff, writes only fixed-size snapshots, and
	// reads nothing back — results are byte-identical with or without it.
	Obs *progress.Publisher
	// ObsLabel names the run in published events (default: the policy name).
	ObsLabel string
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

// macroVM is one VM's compact bookkeeping (no per-vCPU state).
type macroVM struct {
	at       sim.Time
	depart   sim.Time // service deadline; batch analytic completion once known
	work     float64  // batch: remaining per-vCPU seconds of compute
	origWork float64  // batch: full budget, for crash lost-progress accounting
	demand   float64  // per-vCPU demand weight while alive
	steal    float64  // accumulated stolen vCPU-seconds
	served   float64  // accumulated delivered vCPU-seconds
	// downSince marks the kill instant of a crash victim awaiting restart
	// (time-to-recover accounting).
	downSince sim.Time
	host      int32
	restarts  int32
	vcpus     int16
	state     uint8
	batch     bool
	alive     bool
	done      bool // batch budget drained, awaiting boundary departure
}

// macroHost is one host's compact bookkeeping.
type macroHost struct {
	threads   int32
	capacity  int32 // admission bound: overcommit * threads
	committed int32
	speed     float64
	stealEMA  float64
	util      float64    // last epoch's min(1, D/threads)
	res       []resident // live VMs in placement order
	// demand caches the left-to-right sum of res[k].load: an append adds its
	// load, a removal refolds the rest, so it always equals a fresh fold.
	demand float64
	// Fault windows, opened serially at epoch boundaries; a stalled host
	// integrates with rho = 0.
	faultWindows
}

// resident is the integration-hot state of one live VM, stored densely in
// its host's placement order so an epoch streams the host's own records
// instead of chasing ids across the arrival-indexed m.vms. While the VM is
// live on the host, the record is the canonical copy of work, served, steal
// and done: writeBack copies them to the macroVM when the VM departs or is
// killed, and result() does so for every remaining resident before it reads
// m.vms.
type resident struct {
	load   float64 // vcpus * per-vCPU demand weight
	work   float64
	served float64
	steal  float64
	id     int32
	batch  bool
	done   bool
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
}

type macroSim struct {
	cfg     MacroConfig
	eng     *sim.Engine
	reg     *metrics.Registry
	rec     *telemetry.Recorder
	hosts   []macroHost
	vms     []macroVM
	ix      *HostIndex
	ipol    IndexedPolicy
	next    int // first trace VM not yet arrived
	horizon sim.Time
	now     sim.Time // current boundary time (effective-capacity clock)

	placed, rejected, departed int
	events                     uint64
	diSum, diMax               float64
	diEpochs                   int
	makespan                   sim.Time
	agg                        macroAgg

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

	// Live progress publishing (nil obs = detached). obsLabel and the
	// per-fault-kind detail labels are interned once at setup so the
	// per-event publish path allocates nothing.
	obs        *progress.Publisher
	obsLabel   int32
	faultLabel [3]int32
	epochIdx   int64

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
	// vcpus is an int16 and 0 marks a never-placed VM, so a size outside
	// [1, MaxInt16] would corrupt admission accounting or the result.
	for i := range cfg.Trace.VMs {
		if tv := &cfg.Trace.VMs[i]; tv.VCPUs < 1 || tv.VCPUs > math.MaxInt16 {
			panic(fmt.Sprintf("fleet: macro trace VM %d has %d vCPUs, want 1..%d", tv.ID, tv.VCPUs, math.MaxInt16))
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
	for i, hs := range cfg.Trace.Hosts {
		c := int(cfg.Overcommit * float64(hs.Threads))
		m.hosts[i] = macroHost{
			threads:  int32(hs.Threads),
			capacity: int32(c),
			speed:    hs.SpeedFactor,
		}
		caps[i] = c
	}
	m.vms = make([]macroVM, len(cfg.Trace.VMs))
	m.cal = make([][]int32, m.bucket(m.horizon)+1)
	if ipol, ok := cfg.Policy.(IndexedPolicy); ok {
		m.ix = NewHostIndex(caps)
		m.ipol = ipol
	}
	if cfg.Telemetry != nil {
		m.rec = telemetry.New(m.eng, *cfg.Telemetry)
		m.rec.AddSource("", telemetry.RegistrySource(m.reg))
		m.rec.AddSource("", macroSource{m})
		m.rec.Start()
	}
	if cfg.Observe != nil {
		cfg.Observe(m.eng)
	}
	if cfg.Obs != nil {
		m.obs = cfg.Obs
		label := cfg.ObsLabel
		if label == "" {
			label = cfg.Policy.Name()
		}
		m.obsLabel = m.obs.Label(label)
		m.faultLabel[faults.Crash] = m.obs.Label("crash")
		m.faultLabel[faults.Brownout] = m.obs.Label("brownout")
		m.faultLabel[faults.Stall] = m.obs.Label("stall")
		m.obs.Publish(progress.Event{
			Kind:  progress.KindRunStart,
			Label: m.obsLabel,
			Total: int64(len(cfg.Trace.VMs)),
		})
		m.publishMirror()
	}
	return m
}

// epoch advances one integration step: boundary work (departures, arrivals,
// rescoring) then the integration of [now, now+E).
func (m *macroSim) epoch() {
	now := m.eng.Now()
	m.boundary(now)
	// Refresh the recorder's self-census gauges at the boundary so they are
	// scrape- and sample-visible. Deliberately unconditional (not gated on
	// m.obs): telemetry contents must not depend on whether anyone watches.
	m.rec.UpdateCensus(m.reg)
	end := now.Add(m.cfg.Epoch)
	if end > m.horizon {
		end = m.horizon
	}
	if end > now {
		m.integrate(now, end)
		m.publishEpoch(end)
	}
	if end < m.horizon {
		m.eng.At(end, m.epoch)
	}
}

// publishEpoch emits the epoch progress event (cumulative conservation
// ledger + fleet gauges) and refreshes the metric mirror. Safepoint: runs
// after the epoch's integration.
func (m *macroSim) publishEpoch(end sim.Time) {
	m.epochIdx++
	if m.obs == nil {
		return
	}
	m.obs.Publish(progress.Event{
		Kind:      progress.KindEpoch,
		Label:     m.obsLabel,
		At:        int64(end),
		Epoch:     m.epochIdx,
		Admitted:  int64(m.next),
		Completed: int64(m.departed),
		Lost:      int64(m.ledger.Lost),
		Rejected:  int64(m.rejected),
		Running:   int64(m.agg.alive),
		Pending:   int64(len(m.retryQ)),
		UtilMean:  m.agg.utilMean,
		DI:        m.agg.di,
	})
	m.publishMirror()
}

// publishMirror swaps in a fresh snapshot of the cell registry (recorder
// census included), the fleet aggregates and the engine self-census for
// /metrics scrapers. Reads only simulation state, from the simulation
// goroutine.
func (m *macroSim) publishMirror() {
	m.obs.PublishMirror(func(emit func(string, float64)) {
		m.reg.VisitNumeric(emit)
		macroSource{m}.Collect(m.now, emit)
		(&telemetry.SelfSource{Eng: m.eng}).Collect(m.now, emit)
	})
}

// boundary performs the epoch-start work at time t, in a fixed order so
// reruns cannot diverge: departures due by t, fault events quantized to
// this epoch, a full index rescore, pending retries, evacuation of degraded
// hosts, then arrivals with At < t+E in trace order.
func (m *macroSim) boundary(t sim.Time) {
	m.now = t
	// Departures: sweep the calendar through this boundary's bucket. Every
	// live VM due by t is filed in one of those buckets; ids of dead VMs and
	// of VMs whose depart moved later are stale and skipped, and a restarted
	// VM filed twice leaves on its first entry. Departure order within a
	// boundary does not affect state (depart only removes and decrements).
	for k := m.bucket(t); m.swept <= k; m.swept++ {
		for _, id := range m.cal[m.swept] {
			if vm := &m.vms[id]; vm.alive && vm.depart <= t {
				m.depart(id)
			}
		}
		m.cal[m.swept] = nil
	}

	// Fault events landing in this epoch: crashes kill, brownouts degrade,
	// stalls freeze.
	m.applyFaults(t)

	// Rescore every host before any placement work: committed changed
	// above, stealEMA during the last integration, and effective capacity
	// whenever a fault window opened or expired. Every leaf changes, so
	// write them all and rebuild the tree once.
	if m.ix != nil {
		for i := range m.hosts {
			committed, score := indexLeaf(m.ipol, m.macroInfo(i), int(m.hosts[i].capacity))
			m.ix.SetLeaf(i, committed, score)
		}
		m.ix.Rebuild()
	}

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

// reindexHost refreshes host i's leaf and its root path.
func (m *macroSim) reindexHost(i int) {
	if m.ix == nil {
		return
	}
	committed, score := indexLeaf(m.ipol, m.macroInfo(i), int(m.hosts[i].capacity))
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
		h := &m.hosts[faultHost(ev, len(m.hosts))]
		m.events++
		if m.obs != nil {
			m.obs.Publish(progress.Event{
				Kind:   progress.KindFault,
				Label:  m.obsLabel,
				Detail: m.faultLabel[ev.Kind],
				At:     int64(ev.At),
				Host:   int64(ev.Host),
			})
		}
		m.ledger.fault(ev.Kind)
		h.open(ev)
		if ev.Kind == faults.Crash {
			for k := range h.res {
				m.kill(&h.res[k], t)
			}
			h.res = h.res[:0]
			h.demand = 0
			h.committed = 0
		}
	}
}

// kill marks resident r's VM dead after its host crashed: batch progress
// since the last (re)start is destroyed, and the VM either enters the retry
// queue (recovery) or is terminally lost. The caller drops r afterwards.
func (m *macroSim) kill(r *resident, t sim.Time) {
	id := r.id
	m.writeBack(r)
	vm := &m.vms[id]
	vm.alive = false
	vm.done = false
	vm.downSince = t
	m.events++
	m.ledger.count(&m.ledger.Killed, "killed")
	if vm.batch {
		m.lostVCPUSeconds += (vm.origWork - vm.work) * float64(vm.vcpus)
	}
	if !m.rcv.Enabled {
		vm.state = vmLost
		m.ledger.lostAfter(0, int(vm.vcpus))
		return
	}
	vm.state = vmPending
	var remaining sim.Duration
	if !vm.batch {
		remaining = vm.depart.Sub(t) // > 0: departures due by t already ran
	}
	m.enqueue(retryEntry{
		id:        id,
		attempt:   1,
		readyAt:   t.Add(m.rcv.Backoff(1)),
		remaining: remaining,
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
		vm.state = vmRejected
		m.rejected++
		m.reg.Counter("fleet.macro.rejected").Inc()
		return
	}
	vm.state = vmLost
	m.ledger.lostAfter(t.Sub(vm.downSince).Seconds(), int(vm.vcpus))
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
		vm := &m.vms[e.id]
		vcpus := int(vm.vcpus)
		if e.admit {
			vcpus = m.cfg.Trace.VMs[e.id].VCPUs
		}
		hi := m.choose(vcpus)
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
	vm := &m.vms[e.id]
	h := &m.hosts[hi]
	h.committed += int32(vm.vcpus)
	vm.host = int32(hi)
	vm.alive = true
	vm.state = vmRunning
	vm.restarts++
	if vm.batch {
		vm.work = vm.origWork
		vm.done = false
		vm.depart = m.horizon
	} else {
		vm.depart = t.Add(e.remaining)
	}
	h.push(m.resident(e.id))
	m.file(e.id)
	m.events++
	m.ledger.restored(t.Sub(vm.downSince).Seconds(), int(vm.vcpus))
	m.reindexHost(hi)
	if m.obs != nil {
		m.obs.Publish(progress.Event{
			Kind:    progress.KindRecovery,
			Label:   m.obsLabel,
			At:      int64(t),
			Host:    int64(hi),
			Retries: int64(e.attempt),
		})
	}
}

// evacuate drains hosts whose commitment exceeds their degraded capacity,
// newest VM first (coldest state), re-placing through the policy. Each
// attempt consults the migration-failure law; a failed attempt abandons the
// host until the next boundary. A VM with nowhere to go stays — graceful
// degradation: the overcommit persists and shows up as steal.
func (m *macroSim) evacuate(t sim.Time) {
	if !m.rcv.Enabled || m.sched == nil {
		return
	}
	for i := range m.hosts {
		h := &m.hosts[i]
		for int(h.committed) > h.effCap(int(h.capacity), m.now) && len(h.res) > 0 {
			r := h.res[len(h.res)-1]
			vm := &m.vms[r.id]
			m.events++
			if m.ledger.evacFails(m.sched) {
				break
			}
			hi := m.choose(int(vm.vcpus))
			if hi < 0 || hi == i {
				break // nowhere to go: stay overcommitted, steal rises
			}
			h.res = h.res[:len(h.res)-1]
			h.refold()
			h.committed -= int32(vm.vcpus)
			d := &m.hosts[hi]
			d.committed += int32(vm.vcpus)
			d.push(r)
			vm.host = int32(hi)
			m.ledger.count(&m.ledger.Evacuations, "evacuations")
			m.reindexHost(i)
			m.reindexHost(hi)
		}
	}
}

// macroInfo builds the policy snapshot row for host i. Capacity is the
// effective (fault-adjusted) bound, so linear policies steer around degraded
// hosts exactly like the indexed path.
func (m *macroSim) macroInfo(i int) HostInfo {
	h := &m.hosts[i]
	return HostInfo{
		Index:     i,
		Committed: int(h.committed),
		Capacity:  h.effCap(int(h.capacity), m.now),
		VMs:       len(h.res),
		StealRate: h.stealEMA,
	}
}

// choose picks a host for a vcpus-wide VM through the index or the linear
// snapshot scan; -1 means nothing fits.
func (m *macroSim) choose(vcpus int) int {
	if m.ix != nil {
		return m.ipol.PlaceIndexed(m.ix, vcpus)
	}
	snap := make([]HostInfo, len(m.hosts))
	for i := range m.hosts {
		snap[i] = m.macroInfo(i)
	}
	return m.cfg.Policy.Place(snap, vcpus)
}

// place admits trace VM idx at epoch time t. A rejection is terminal only
// without recovery; with recovery the VM queues for re-admission with the
// same backoff law crash victims use, so demand is conserved, not dropped.
func (m *macroSim) place(idx int, t sim.Time) {
	tv := &m.cfg.Trace.VMs[idx]
	hi := m.choose(tv.VCPUs)
	m.events++
	if hi < 0 {
		vm := &m.vms[idx]
		if m.rcv.Enabled {
			vm.state = vmPending
			m.enqueue(retryEntry{
				id:      int32(idx),
				admit:   true,
				attempt: 1,
				readyAt: t.Add(m.rcv.Backoff(1)),
			}, t)
			return
		}
		vm.state = vmRejected
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
	*vm = macroVM{
		at:     t,
		demand: tv.Demand,
		host:   int32(hi),
		vcpus:  int16(tv.VCPUs),
		batch:  tv.Class == cloudgen.Batch,
		alive:  true,
		state:  vmRunning,
	}
	if vm.batch {
		vm.work = tv.Work.Seconds()
		vm.origWork = vm.work
		vm.depart = m.horizon // until the budget drains
	} else {
		vm.depart = t.Add(tv.Lifetime)
	}
	h.push(m.resident(int32(idx)))
	m.file(int32(idx))
	m.placed++
	m.reg.Counter("fleet.macro.placed").Inc()
	m.reindexHost(hi)
}

// depart releases VM id's commitment and removes it from its host.
func (m *macroSim) depart(id int32) {
	vm := &m.vms[id]
	vm.alive = false
	vm.state = vmCompleted
	h := &m.hosts[vm.host]
	h.committed -= int32(vm.vcpus)
	for k := range h.res {
		if h.res[k].id == id {
			m.writeBack(&h.res[k])
			h.res = append(h.res[:k], h.res[k+1:]...)
			h.refold()
			break
		}
	}
	m.departed++
	m.events++
	m.reg.Counter("fleet.macro.departed").Inc()
}

// resident builds VM id's record from its macroVM, whose fields admit or
// restart has just set.
func (m *macroSim) resident(id int32) resident {
	vm := &m.vms[id]
	return resident{
		load:   float64(vm.vcpus) * vm.demand,
		work:   vm.work,
		served: vm.served,
		steal:  vm.steal,
		id:     id,
		batch:  vm.batch,
		done:   vm.done,
	}
}

// push appends resident r to the host and adds its load to the cached
// demand: the same left fold a fresh sum over res performs.
func (h *macroHost) push(r resident) {
	h.res = append(h.res, r)
	h.demand += r.load
}

// refold recomputes the cached demand after a removal, left to right over
// the remaining records. Subtracting the departed load would round
// differently from the fold that built the sum.
func (h *macroHost) refold() {
	d := 0.0
	for k := range h.res {
		d += h.res[k].load
	}
	h.demand = d
}

// writeBack copies resident r's canonical fields to its macroVM.
func (m *macroSim) writeBack(r *resident) {
	vm := &m.vms[r.id]
	vm.work, vm.served, vm.steal, vm.done = r.work, r.served, r.steal, r.done
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
		m.events += uint64(len(h.res)) + 1
		m.advance(h, t0, t1, dt)
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
		alive += float64(len(h.res))
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
	h.stealEMA = alpha*target + (1-alpha)*h.stealEMA
	res := h.res
	for k := range res {
		r := &res[k]
		span := dt
		if r.batch && !r.done {
			rate := rho * h.speed // per-vCPU progress per second
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
				r.work -= rate * span
			}
		} else if r.done {
			span = 0 // budget drained in a prior epoch; idle until boundary
		}
		req := r.load * span
		r.served += req * rho
		r.steal += req * (1 - rho)
	}
}

// result finalizes counters, percentiles and the canonical snapshot, and
// enforces the conservation law: every arrival is in exactly one terminal or
// live state — nothing is lost unaccounted.
func (m *macroSim) result() *MacroResult {
	for i := range m.hosts {
		for k := range m.hosts[i].res {
			m.writeBack(&m.hosts[i].res[k])
		}
	}
	fracs := make([]float64, 0, m.placed)
	totalSteal := 0.0
	for i := range m.vms {
		vm := &m.vms[i]
		if vm.vcpus == 0 {
			continue // never placed
		}
		totalSteal += vm.steal
		if tot := vm.steal + vm.served; tot > 0 {
			fracs = append(fracs, vm.steal/tot)
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

	// Walk the arrived VMs for the live states; crash victims still pending
	// at the horizon accrue their outage tail here.
	var running, pending int
	for i := 0; i < m.next; i++ {
		vm := &m.vms[i]
		switch vm.state {
		case vmRunning:
			running++
		case vmPending:
			pending++
			if vm.vcpus > 0 { // crash victim (admission retries never ran)
				m.ledger.outage(m.horizon.Sub(vm.downSince).Seconds(), int(vm.vcpus))
			}
		}
	}
	out := m.ledger.outcome("macro", census{
		entered: m.next, departed: m.departed, rejected: m.rejected, pending: pending, running: running,
	})

	if m.obs != nil {
		// Final ledger, after the horizon boundary's departures: the stream's
		// terminal record, which consumers reconcile against the per-epoch
		// events and the conservation law.
		m.obs.Publish(progress.Event{
			Kind:      progress.KindRunDone,
			Label:     m.obsLabel,
			At:        int64(m.horizon),
			Epoch:     m.epochIdx,
			Admitted:  int64(m.next),
			Completed: int64(m.departed),
			Lost:      int64(out.Lost),
			Rejected:  int64(m.rejected),
			Running:   int64(running),
			Pending:   int64(pending),
		})
		m.publishMirror()
	}

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

// snapshot encodes final state canonically: every host's commitment, steal
// EMA and utilization, every VM's steal/served/work bits, and the scalar
// outcome counters. Two runs that diverge anywhere — one float op, one
// placement, one departure order — produce different bytes.
func (m *macroSim) snapshot() []byte {
	// Exact size: 7 words per host, 5 per VM, 24 scalars. At full scale the
	// buffer is ~9 MB, and growing it by append would copy it several times.
	buf := make([]byte, 0, 8*(7*len(m.hosts)+5*len(m.vms)+24))
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
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
		f64(vm.steal)
		f64(vm.served)
		f64(vm.work)
		flags := uint64(vm.host) << 8
		if vm.alive {
			flags |= 1
		}
		if vm.done {
			flags |= 2
		}
		u64(flags)
		u64(uint64(vm.state) | uint64(uint32(vm.restarts))<<8)
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
