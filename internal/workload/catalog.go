package workload

import (
	"sort"

	"vsched/internal/sim"
)

// The catalog characterises each of the paper's benchmarks by what matters
// to a scheduler: task granularity, synchronisation structure, imbalance and
// blocking behaviour. Parameters are calibrated for plausibility (task sizes
// in the range the real suites exhibit), not bit-exactness — the evaluation
// compares scheduler configurations against each other, under identical
// workloads.

// parallelSpecs: PARSEC (first ten) and Splash-2x kernels. Lock critical
// sections are sized so the lock stays below ~saturation at 32 threads
// (crit*threads < work), as in the real programs' fine-grained locking.
var parallelSpecs = []ParallelSpec{
	{Name: "blackscholes", DefaultThreads: 0, IterWork: 10 * sim.Millisecond, Imbalance: 0.10, Sync: SyncNone},
	{Name: "bodytrack", IterWork: 2 * sim.Millisecond, Imbalance: 0.30, Sync: SyncBarrier, SerialFrac: 0.10},
	{Name: "canneal", IterWork: 1 * sim.Millisecond, Imbalance: 0.20, Sync: SyncLock, CritFrac: 0.015, FootprintMB: 2.5},
	{Name: "facesim", IterWork: 4 * sim.Millisecond, Imbalance: 0.25, Sync: SyncBarrier, SerialFrac: 0.15, FootprintMB: 2},
	{Name: "fluidanimate", IterWork: 800 * sim.Microsecond, Imbalance: 0.15, Sync: SyncLock, CritFrac: 0.01},
	{Name: "freqmine", IterWork: 6 * sim.Millisecond, Imbalance: 0.20, Sync: SyncNone},
	{Name: "streamcluster", IterWork: 800 * sim.Microsecond, Imbalance: 0.15, Sync: SyncSpinBarrier, SerialFrac: 0.10, FootprintMB: 3},
	{Name: "swaptions", IterWork: 8 * sim.Millisecond, Imbalance: 0.05, Sync: SyncNone},
	{Name: "barnes", IterWork: 3 * sim.Millisecond, Imbalance: 0.30, Sync: SyncBarrier, SerialFrac: 0.10},
	{Name: "fft", IterWork: 5 * sim.Millisecond, Imbalance: 0.10, Sync: SyncBarrier, SerialFrac: 0.10},
	{Name: "lu_cb", IterWork: 2 * sim.Millisecond, Imbalance: 0.20, Sync: SyncBarrier, SerialFrac: 0.05},
	{Name: "lu_ncb", IterWork: 2 * sim.Millisecond, Imbalance: 0.35, Sync: SyncBarrier, SerialFrac: 0.05},
	{Name: "ocean_cp", IterWork: 1 * sim.Millisecond, Imbalance: 0.15, Sync: SyncBarrier, SerialFrac: 0.08, FootprintMB: 2},
	{Name: "ocean_ncp", IterWork: 1200 * sim.Microsecond, Imbalance: 0.20, Sync: SyncBarrier, SerialFrac: 0.08},
	{Name: "radiosity", IterWork: 1 * sim.Millisecond, Imbalance: 0.30, Sync: SyncLock, CritFrac: 0.0125},
	{Name: "radix", IterWork: 1500 * sim.Microsecond, Imbalance: 0.10, Sync: SyncBarrier, SerialFrac: 0.08},
	{Name: "raytrace", IterWork: 3 * sim.Millisecond, Imbalance: 0.25, Sync: SyncLock, CritFrac: 0.01},
	{Name: "volrend", IterWork: 1 * sim.Millisecond, Imbalance: 0.30, Sync: SyncSpinBarrier, FootprintMB: 1.5},
	{Name: "water_spatial", IterWork: 2 * sim.Millisecond, Imbalance: 0.15, Sync: SyncLock, CritFrac: 0.01},
}

// pipelineSpecs: pipeline-parallel programs.
var pipelineSpecs = []PipelineSpec{
	{Name: "dedup", ReadIO: 200 * sim.Microsecond, ReadCPU: 100 * sim.Microsecond,
		WorkCPU: 1500 * sim.Microsecond, WriteCPU: 100 * sim.Microsecond, FootprintMB: 2},
	{Name: "ferret", ReadIO: 150 * sim.Microsecond, ReadCPU: 200 * sim.Microsecond,
		WorkCPU: 2 * sim.Millisecond, WriteCPU: 50 * sim.Microsecond, FootprintMB: 1.5},
	{Name: "x264", ReadIO: 100 * sim.Microsecond, ReadCPU: 300 * sim.Microsecond,
		WorkCPU: 1 * sim.Millisecond, WriteCPU: 100 * sim.Microsecond},
	{Name: "pbzip2", ReadIO: 500 * sim.Microsecond, ReadCPU: 100 * sim.Microsecond,
		WorkCPU: 3 * sim.Millisecond, WriteCPU: 150 * sim.Microsecond, WriteIO: 300 * sim.Microsecond},
}

// tailSpecs: Tailbench latency-sensitive request services (mean service
// time per request). Search/speech services have heavy-tailed request
// sizes; OLTP-style ones are tightly distributed.
var tailSpecs = []struct {
	name  string
	svc   sim.Duration
	heavy bool
}{
	{"img-dnn", 1500 * sim.Microsecond, false},
	{"moses", 1 * sim.Millisecond, false},
	{"masstree", 350 * sim.Microsecond, false},
	{"silo", 100 * sim.Microsecond, false},
	{"shore", 600 * sim.Microsecond, false},
	{"specjbb", 800 * sim.Microsecond, false},
	{"sphinx", 4 * sim.Millisecond, true},
	{"xapian", 900 * sim.Microsecond, true},
}

// NewTailbench builds the named Tailbench-like service with a sensible
// open-loop arrival rate (the paper reduces arrival rates so queueing behind
// other requests is minimal and extended runqueue latency dominates).
// heavyTail selects ServerConfig.HeavyTail's service-time profile.
func NewTailbench(env Env, name string, svc sim.Duration, heavyTail bool) *Server {
	workers := env.VM.NumVCPUs()
	if env.Threads > 0 {
		workers = env.Threads
	}
	// Aggregate utilisation ~15%: interarrival = svc / (0.15 * workers) —
	// but never faster than a few ms. The paper reduces arrival rates so
	// requests don't queue behind each other and each one exercises a fresh
	// worker wakeup; that floor isolates extended runqueue latency.
	inter := sim.Duration(float64(svc) / (0.15 * float64(workers)))
	if floor := 3 * sim.Millisecond; inter < floor {
		inter = floor
	}
	return NewServer(env, ServerConfig{
		Name:         name,
		Workers:      workers,
		ServiceMean:  svc,
		ServiceJit:   0.3,
		Interarrival: inter,
		LatencyMark:  true,
		HeavyTail:    heavyTail,
	})
}

// NewNginx builds the closed-loop web server used by the live-throughput
// experiments (Figs. 16 and 17).
func NewNginx(env Env) *Server {
	workers := env.VM.NumVCPUs()
	if env.Threads > 0 {
		workers = env.Threads
	}
	// Connections slightly above the worker count with a short think time:
	// workers saturate under load but still block between requests, so the
	// server stays wakeup-driven like a real epoll loop.
	return NewServer(env, ServerConfig{
		Name:        "nginx",
		Workers:     workers,
		ServiceMean: 300 * sim.Microsecond,
		ServiceJit:  0.25,
		Connections: 2 * workers,
		Think:       200 * sim.Microsecond,
		FootprintMB: 1.5,
	})
}

// Catalog returns all catalogued benchmark specs.
func Catalog() []Spec {
	var specs []Spec
	for _, ps := range parallelSpecs {
		ps := ps
		specs = append(specs, Spec{Name: ps.Name, New: func(env Env) Instance {
			return NewParallel(env, ps)
		}})
	}
	for _, pl := range pipelineSpecs {
		pl := pl
		specs = append(specs, Spec{Name: pl.Name, New: func(env Env) Instance {
			return NewPipeline(env, pl)
		}})
	}
	for _, ts := range tailSpecs {
		ts := ts
		specs = append(specs, Spec{Name: ts.name, New: func(env Env) Instance {
			return NewTailbench(env, ts.name, ts.svc, ts.heavy)
		}})
	}
	specs = append(specs,
		Spec{Name: "nginx", New: func(env Env) Instance { return NewNginx(env) }},
		Spec{Name: "sysbench", New: func(env Env) Instance {
			return NewSysbench(env, env.VM.NumVCPUs())
		}},
		Spec{Name: "hackbench", New: func(env Env) Instance {
			return NewHackbench(env, 4, 4, 200)
		}},
		Spec{Name: "fio", New: func(env Env) Instance {
			return NewFio(env, env.VM.NumVCPUs())
		}},
		Spec{Name: "matmul", New: func(env Env) Instance {
			return NewMatmul(env, env.VM.NumVCPUs())
		}},
	)
	return specs
}

// ByName looks up a catalogued benchmark.
func ByName(name string) (Spec, bool) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns all catalogued benchmark names, sorted.
func Names() []string {
	var out []string
	for _, s := range Catalog() {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// Fig18ThroughputNames lists the throughput-oriented workloads of the
// overall-evaluation figures, in the paper's order.
func Fig18ThroughputNames() []string {
	return []string{
		"blackscholes", "bodytrack", "canneal", "dedup", "facesim",
		"fluidanimate", "freqmine", "streamcluster", "swaptions", "x264",
		"barnes", "fft", "lu_cb", "lu_ncb", "ocean_cp", "ocean_ncp",
		"radiosity", "radix", "raytrace", "volrend", "water_spatial",
		"pbzip2", "nginx",
	}
}

// Fig18LatencyNames lists the latency-sensitive workloads of the
// overall-evaluation figures, in the paper's order.
func Fig18LatencyNames() []string {
	return []string{
		"img-dnn", "moses", "masstree", "silo", "shore", "specjbb",
		"sphinx", "xapian",
	}
}
