// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment builds its scenario from the substrate
// packages, runs it in virtual time, and reports the same rows or series the
// paper does. Absolute numbers differ from the paper's testbed; the shapes
// (who wins, by roughly what factor, where crossovers fall) are the
// reproduction target and are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"vsched/internal/core"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
	"vsched/internal/workload"
)

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness; a given (experiment, seed, scale) triple
	// is fully reproducible.
	Seed int64
	// Scale shrinks (<1) or stretches (>1) measurement windows. Benchmarks
	// use small scales; 1.0 reproduces the defaults.
	Scale float64
	// Verbose adds per-phase notes to reports.
	Verbose bool
	// Stats, when non-nil, observes every engine the run builds so callers
	// (the harness) can report simulation effort and interrupt a trial that
	// overran its wall-clock budget. Attaching it does not change results.
	Stats *Stats
}

// Stats collects the engines and metrics registries one experiment run
// builds. The run registers from its own goroutine and from its cells' (see
// cells); Interrupt and the read accessors may be called from another
// goroutine, hence the lock.
//
// A cell gets a child Stats: Track goes straight to the root, so Interrupt
// reaches every engine at once, while registries and recorders stay with the
// child until the cells finish and are merged into the parent in cell order —
// the order a serial run tracks them in.
type Stats struct {
	mu          sync.Mutex
	root        *Stats // set on a cell's child: where its engines are tracked
	engines     []*sim.Engine
	interrupted bool
	regs        []labeled[*metrics.Registry]
	telem       []labeled[*telemetry.Recorder]
}

// labeled is one tracked item under the label the experiment gave it.
// Labels repeat across the VMs an experiment deploys; the snapshots make
// them run-unique with a #n suffix on the n-th repeat, counted in tracking
// order.
type labeled[T any] struct {
	label string
	v     T
}

// uniqueLabels returns each item's run-unique snapshot label.
func uniqueLabels[T any](items []labeled[T]) []string {
	seen := make(map[string]int, len(items))
	out := make([]string, len(items))
	for i, it := range items {
		n := seen[it.label]
		seen[it.label] = n + 1
		out[i] = it.label
		if n > 0 {
			out[i] = fmt.Sprintf("%s#%d", it.label, n+1)
		}
	}
	return out
}

// child returns the Stats one cell of s's run reports to (nil for nil s).
func (s *Stats) child() *Stats {
	if s == nil {
		return nil
	}
	if s.root != nil {
		return &Stats{root: s.root}
	}
	return &Stats{root: s}
}

// merge appends the children's registries and recorders to s in the order given. Only call once the children's cells
// have finished.
func (s *Stats) merge(kids []*Stats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range kids {
		s.regs = append(s.regs, k.regs...)
		s.telem = append(s.telem, k.telem...)
	}
}

// Track registers an engine. A nil receiver is a no-op, so call sites do not
// need to guard. If the run was already interrupted the engine is stopped
// immediately, so a trial cannot outlive its deadline by building fresh
// engines.
func (s *Stats) Track(e *sim.Engine) {
	if s == nil {
		return
	}
	if s.root != nil {
		s.root.Track(e)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engines = append(s.engines, e)
	if s.interrupted {
		e.Interrupt()
	}
}

// Interrupt freezes every engine tracked so far and every engine tracked
// later. Safe to call from any goroutine.
func (s *Stats) Interrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interrupted = true
	for _, e := range s.engines {
		e.Interrupt()
	}
}

// TrackRegistry registers a VM's metrics registry under label. Labels repeat
// across the VMs an experiment deploys; repeats get a deterministic #n suffix
// in tracking order, which is fixed because a cell registers from one
// goroutine and cells are merged in cell order. A nil receiver is a no-op.
func (s *Stats) TrackRegistry(label string, reg *metrics.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.regs = append(s.regs, labeled[*metrics.Registry]{label, reg})
}

// TrackTelemetry records one flight recorder (see internal/telemetry) under
// label, for the harness to embed its deterministic snapshot in the trial
// artifact. Repeated labels get a deterministic #n suffix, like
// TrackRegistry. A nil receiver or nil recorder is a no-op.
func (s *Stats) TrackTelemetry(label string, rec *telemetry.Recorder) {
	if s == nil || rec == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.telem = append(s.telem, labeled[*telemetry.Recorder]{label, rec})
}

// TelemetrySnapshot exports every tracked recorder's deterministic snapshot
// keyed by label (nil when nothing was tracked). Volatile series are
// excluded so the result embeds in determinism-checked artifacts. Only call
// after the run has returned.
func (s *Stats) TelemetrySnapshot() map[string]*telemetry.Snapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out map[string]*telemetry.Snapshot
	for i, label := range uniqueLabels(s.telem) {
		if out == nil {
			out = make(map[string]*telemetry.Snapshot, len(s.telem))
		}
		out[label] = s.telem[i].v.Snapshot(false)
	}
	return out
}

// MetricsSnapshot flattens every tracked registry into one label-prefixed
// map, histograms expanded as VisitNumeric expands them (nil when no tracked
// registry holds an instrument). Only call after the run has returned: the
// instruments themselves are not synchronised.
func (s *Stats) MetricsSnapshot() map[string]float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out map[string]float64
	for i, label := range uniqueLabels(s.regs) {
		s.regs[i].v.VisitNumeric(func(k string, v float64) {
			if out == nil {
				out = make(map[string]float64)
			}
			out[label+"."+k] = v
		})
	}
	return out
}

// Engines returns how many engines the run built.
func (s *Stats) Engines() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.engines)
}

// EventsFired sums events executed across all tracked engines. Only call
// after the run has returned (or been interrupted and unwound): the
// per-engine counters themselves are not synchronised.
func (s *Stats) EventsFired() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, e := range s.engines {
		total += e.Fired()
	}
	return total
}

func (o Options) scaled(d sim.Duration) sim.Duration {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	v := sim.Duration(float64(d) * s)
	if v < sim.Millisecond {
		v = sim.Millisecond
	}
	return v
}

// warm scales a warmup duration but never below the probers' learning time:
// vcap publishes its first sample after ~1.1s and EMA stabilises within a
// few periods, regardless of how short the measurement windows are scaled.
func (o Options) warm(d sim.Duration) sim.Duration {
	v := o.scaled(d)
	if floor := 4 * sim.Second; v < floor {
		v = floor
	}
	return v
}

// Report is one table/figure regenerated as rows.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (r *Report) Add(cells ...string) { r.Rows = append(r.Rows, cells) }

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Cell returns the cell at (row, col) — test helper.
func (r *Report) Cell(row, col int) string { return r.Rows[row][col] }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner regenerates one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) *Report
}

// Registry lists all experiments in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig2", "Extended runqueue latency vs vCPU latency", Fig2},
		{"fig3", "Stalled running task and proactive migration", Fig3},
		{"fig4", "Deficient work conservation (straggler / stacking)", Fig4},
		{"fig10a", "EMA capacity tracking", Fig10a},
		{"fig10b", "Probed cache-line transfer latency matrix", Fig10b},
		{"table2", "vtop probing time", Table2},
		{"fig11", "Capacity-aware scheduling with vcap", Fig11},
		{"fig12", "SMT-aware scheduling with vtop", Fig12},
		{"fig13", "LLC-aware optimisation with vtop", Fig13},
		{"fig14", "Latency reduction with bvs", Fig14},
		{"table3", "Masstree p95 latency breakdown", Table3},
		{"fig15", "Throughput improvement with ivh", Fig15},
		{"table4", "Canneal: activity-aware vs unaware ivh", Table4},
		{"fig16", "Adaptability to vCPU changes", Fig16},
		{"fig17", "Multi-tenant QoS", Fig17},
		{"fig18", "Overall improvement on rcvm", Fig18},
		{"fig19", "Overall improvement on hpvm", Fig19},
		{"fig20", "Cost of vSched", Fig20},
		{"fig21", "Overhead when abstraction is already accurate", Fig21},
		{"probeacc", "Prober accuracy vs host ground truth", ProbeAccuracy},
		{"fleet", "Fleet-scale placement: policy x guest on a 32-host cluster", FleetScale},
		{"attrib", "Latency attribution: per-cause wall-time breakdown by config", Attrib},
		{"fleetscale", "Cloud-scale placement: 1024-host heterogeneous fleet on a generated trace", CloudScale},
		{"faulttol", "Fault tolerance: deterministic crash/brownout schedule, recovery vs loss", FaultTol},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// --- scenario plumbing ---

// Config names the three scheduler configurations compared throughout §5.
type Config int

const (
	// CFS is the stock guest scheduler with the default vCPU abstraction.
	CFS Config = iota
	// Enhanced is CFS with vProbers feeding it plus rwc ("enhanced CFS").
	Enhanced
	// VSched is the full system (enhanced + bvs + ivh).
	VSched
)

func (c Config) String() string {
	switch c {
	case CFS:
		return "CFS"
	case Enhanced:
		return "Enhanced CFS"
	case VSched:
		return "vSched"
	}
	return "?"
}

// cluster is a host under construction.
type cluster struct {
	eng   *sim.Engine
	h     *host.Host
	stats *Stats
}

// newCluster builds a host; nominal speed 2.0 cycles/ns, SMT and turbo on.
// The seed comes from o.Seed and the engine is registered with o.Stats.
func newCluster(o Options, sockets, cores, threadsPer int) *cluster {
	return buildCluster(o, sockets, cores, threadsPer, false)
}

// newFlatCluster builds a host without SMT/turbo speed effects — used by
// controlled experiments that need exact capacity arithmetic.
func newFlatCluster(o Options, sockets, cores, threadsPer int) *cluster {
	return buildCluster(o, sockets, cores, threadsPer, true)
}

// buildCluster is newCluster and newFlatCluster's shared body.
func buildCluster(o Options, sockets, cores, threadsPer int, flat bool) *cluster {
	eng := sim.NewEngine(o.Seed)
	o.Stats.Track(eng)
	h := host.New(eng, host.TopologyConfig(sockets, cores, threadsPer, flat))
	return &cluster{eng: eng, h: h, stats: o.Stats}
}

func (c *cluster) threads(idx ...int) []*host.Thread {
	out := make([]*host.Thread, len(idx))
	for i, id := range idx {
		out[i] = c.h.Thread(id)
	}
	return out
}

func (c *cluster) firstThreads(n int) []*host.Thread {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return c.threads(idx...)
}

// deployment is a VM with an optional vSched instance.
type deployment struct {
	vm *guest.VM
	vs *core.VSched
}

// deploy builds and starts a VM on the given threads under a configuration:
// CFS runs no vSched, Enhanced the enhanced-CFS feature set, VSched all of it.
func deploy(c *cluster, name string, threads []*host.Thread, cfg Config) *deployment {
	var feats core.Features
	switch cfg {
	case Enhanced:
		feats = core.EnhancedCFS()
	case VSched:
		feats = core.AllFeatures()
	}
	return deployFeatures(c, name, threads, feats)
}

// deployFeatures builds a VM with an explicit feature set (for experiments
// isolating single probers/techniques); the zero set runs no vSched.
func deployFeatures(c *cluster, name string, threads []*host.Thread, feats core.Features) *deployment {
	vm := guest.NewVM(c.h, name, threads, guest.DefaultParams())
	c.stats.TrackRegistry(name, vm.Metrics())
	vm.Start()
	d := &deployment{vm: vm}
	if feats != (core.Features{}) {
		d.vs = core.Attach(vm, feats)
	}
	return d
}

// env returns the workload environment for this deployment.
func (d *deployment) env(threadsOverride int) workload.Env {
	e := workload.Env{
		VM:      d.vm,
		Threads: threadsOverride,
		Nominal: d.vm.Host().Config().BaseSpeed,
	}
	if d.vs != nil {
		e.Group = d.vs.UserGroup()
		e.BEGroup = d.vs.BEGroup()
	}
	return e
}

// dutyContender puts a square-wave co-tenant on a thread: inactive `on`
// every `on+off` for the entity sharing it.
func dutyContender(c *cluster, t *host.Thread, on, off, phase sim.Duration) *host.PatternContender {
	return host.NewPatternContender(c.h, "tenant", t, on, off, phase)
}

// halfDuty configures a thread so a vCPU there gets ~50% in bursts of
// `burst`, with per-thread phase stagger.
func halfDuty(c *cluster, t *host.Thread, burst sim.Duration, i int) *host.PatternContender {
	phase := sim.Duration(i) * burst / 2
	return dutyContender(c, t, burst, burst, phase)
}

// spawnBestEffort puts a SCHED_IDLE CPU hog on every vCPU (the best-effort
// background harvesting load used by Figs. 2 and 14).
func spawnBestEffort(d *deployment) {
	for i := 0; i < d.vm.NumVCPUs(); i++ {
		opts := []guest.TaskOpt{guest.WithIdlePolicy(), guest.StartOn(i)}
		if d.vs != nil {
			opts = append(opts, guest.WithGroup(d.vs.BEGroup()))
		}
		d.vm.Spawn(fmt.Sprintf("be%d", i), func(sim.Time) guest.Segment {
			return guest.Compute(2e6) // 1ms chunks at nominal speed
		}, opts...)
	}
}

// measureOps runs inst for warmup+window and returns ops completed within
// the window.
func measureOps(c *cluster, inst workload.Instance, warmup, window sim.Duration) uint64 {
	inst.Start()
	c.eng.RunFor(warmup)
	before := inst.Ops()
	c.eng.RunFor(window)
	return inst.Ops() - before
}

// pct formats v as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// msStr formats nanoseconds as milliseconds.
func msStr(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1e6) }
