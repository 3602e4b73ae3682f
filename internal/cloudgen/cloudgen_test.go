package cloudgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vsched/internal/faults"
	"vsched/internal/sim"
)

// smallConfig keeps unit-test traces cheap: ~2.5k VMs over 12h on 24 hosts.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 12 * Hour
	cfg.BaseRate = 200
	cfg.Hosts = []HostClass{
		{Name: "std16", Count: 16, Cores: 8, SMT: 2, SpeedFactor: 1.0},
		{Name: "small8", Count: 8, Cores: 8, SMT: 1, SpeedFactor: 0.9},
	}
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, smallConfig())
	b := Generate(7, smallConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := Generate(8, smallConfig())
	if reflect.DeepEqual(a.VMs, c.VMs) {
		t.Fatal("different seeds produced identical arrival sequences")
	}
}

// encode renders a trace into a canonical byte form: every field of every
// arrival and host, so any drift anywhere shows up in the digest.
func encode(tr Trace) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d horizon=%d\n", tr.Seed, tr.Horizon)
	out := []byte{}
	for _, hs := range tr.Hosts {
		fmt.Fprintf(h, "host %s %d %x\n", hs.Class, hs.Threads, math.Float64bits(hs.SpeedFactor))
	}
	for _, vm := range tr.VMs {
		fmt.Fprintf(h, "vm %d %d %d %d %x %d %d\n",
			vm.ID, vm.At, vm.VCPUs, vm.Class, math.Float64bits(vm.Demand), vm.Lifetime, vm.Work)
	}
	return h.Sum(out)
}

// TestGoldenTrace pins the generator's exact output for a fixed seed: any
// change to the sampling order, distribution code or defaults shows up as a
// digest mismatch and must be a deliberate, documented break.
func TestGoldenTrace(t *testing.T) {
	tr := Generate(42, smallConfig())
	got := fmt.Sprintf("%x", encode(tr))
	const want = goldenTraceDigest
	if got != want {
		t.Fatalf("golden trace digest changed: got %s want %s (VMs=%d)", got, want, len(tr.VMs))
	}
}

// regionConfig is the 96 h, 1024-host region the macro benchmark workloads
// replay: the default config over twice its horizon (~231k arrivals).
func regionConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 96 * Hour
	return cfg
}

// TestGoldenTraceFullRegion pins the full-size region trace byte for byte, so
// a speed-up of the generator cannot shift a single draw of the inputs the
// macro tier is measured on.
func TestGoldenTraceFullRegion(t *testing.T) {
	tr := Generate(42, regionConfig())
	got := fmt.Sprintf("%x", encode(tr))
	const want = goldenRegionDigest
	if got != want {
		t.Fatalf("full-region trace digest changed: got %s want %s (VMs=%d)", got, want, len(tr.VMs))
	}
}

func TestTraceShape(t *testing.T) {
	cfg := smallConfig()
	tr := Generate(3, cfg)
	if len(tr.VMs) == 0 {
		t.Fatal("empty trace")
	}
	if len(tr.Hosts) != 24 {
		t.Fatalf("host expansion: got %d hosts, want 24", len(tr.Hosts))
	}
	// Stable fleet order: class declaration order, then instance index.
	if tr.Hosts[0].Class != "std16" || tr.Hosts[16].Class != "small8" {
		t.Fatalf("host order not stable: %s / %s", tr.Hosts[0].Class, tr.Hosts[16].Class)
	}
	if tr.TotalThreads() != 16*16+8*8 {
		t.Fatalf("total threads %d", tr.TotalThreads())
	}
	var last sim.Time
	for i, vm := range tr.VMs {
		if vm.ID != i {
			t.Fatalf("IDs not sequential: VMs[%d].ID=%d", i, vm.ID)
		}
		if vm.At < last {
			t.Fatalf("arrivals not time-sorted at %d", i)
		}
		last = vm.At
		if vm.At < 0 || vm.At >= sim.Time(cfg.Horizon) {
			t.Fatalf("arrival %d outside horizon: %v", i, vm.At)
		}
		if vm.VCPUs < cfg.Size.MinVCPUs || vm.VCPUs > cfg.Size.MaxVCPUs {
			t.Fatalf("size %d outside [%d,%d]", vm.VCPUs, cfg.Size.MinVCPUs, cfg.Size.MaxVCPUs)
		}
		switch vm.Class {
		case Batch:
			if vm.Work <= 0 || vm.Lifetime != 0 || vm.Demand != 1.0 {
				t.Fatalf("batch VM %d malformed: %+v", i, vm)
			}
		case Service:
			if vm.Lifetime <= 0 || vm.Work != 0 || vm.Demand != cfg.ServiceDemand {
				t.Fatalf("service VM %d malformed: %+v", i, vm)
			}
		}
	}
}

// smokeRegionConfig is the 64-host, 3 h region of the macro benchmark's
// smoke size.
func smokeRegionConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 3 * Hour
	cfg.BaseRate = 600
	for i := range cfg.Hosts {
		cfg.Hosts[i].Count /= 16
	}
	return cfg
}

// TestGenerateAllocBudget: Generate reserves tr.VMs once from the rate
// integral, so the default, full-region and smoke traces never regrow and
// waste at most 3% (+64) of their capacity, MaxVMs caps the reservation, and
// a call allocates a fixed handful of objects whatever the trace length.
func TestGenerateAllocBudget(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"region":  regionConfig(),
		"smoke":   smokeRegionConfig(),
	} {
		tr := Generate(42, cfg)
		n, c := len(tr.VMs), cap(tr.VMs)
		if c < n || float64(c) > 1.03*float64(n)+64 {
			t.Errorf("%s: %d VMs in capacity %d, want len <= cap <= 1.03*len+64", name, n, c)
		}
	}
	capped := regionConfig()
	capped.MaxVMs = 1000
	if tr := Generate(42, capped); len(tr.VMs) != 1000 || cap(tr.VMs) > 1000 {
		t.Errorf("MaxVMs 1000: %d VMs in capacity %d", len(tr.VMs), cap(tr.VMs))
	}

	small, region := smallConfig(), regionConfig()
	a := testing.AllocsPerRun(3, func() { Generate(42, small) })
	b := testing.AllocsPerRun(3, func() { Generate(42, region) })
	if a != b || b > 8 {
		t.Fatalf("Generate allocs: %v for a 24-host 12 h trace, %v for the 1024-host 96 h region; want equal and <= 8", a, b)
	}
}

func TestMaxVMsCap(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxVMs = 100
	tr := Generate(5, cfg)
	if len(tr.VMs) != 100 {
		t.Fatalf("cap ignored: %d VMs", len(tr.VMs))
	}
}

// paretoCDF is the bounded-Pareto CDF on [lo,hi].
func paretoCDF(x, alpha, lo, hi float64) float64 {
	if x <= lo {
		return 0
	}
	if x >= hi {
		return 1
	}
	la := math.Pow(lo, alpha)
	return (1 - la*math.Pow(x, -alpha)) / (1 - la/math.Pow(hi, alpha))
}

// TestSizeTailMatchesPareto compares the empirical size CDF against the
// configured bounded Pareto at every power-of-two threshold, across seeds.
// Sizes are floor-discretized, so P(size <= n) = F(n+1).
func TestSizeTailMatchesPareto(t *testing.T) {
	cfg := smallConfig()
	cfg.BaseRate = 800 // ~10k samples
	for _, seed := range []int64{1, 2, 3} {
		tr := Generate(seed, cfg)
		n := float64(len(tr.VMs))
		if n < 5000 {
			t.Fatalf("seed %d: too few samples (%v) for a tail check", seed, n)
		}
		for _, thr := range []int{1, 2, 4, 8, 16} {
			count := 0
			for _, vm := range tr.VMs {
				if vm.VCPUs <= thr {
					count++
				}
			}
			got := float64(count) / n
			want := paretoCDF(float64(thr+1), cfg.Size.Alpha,
				float64(cfg.Size.MinVCPUs), float64(cfg.Size.MaxVCPUs))
			if math.Abs(got-want) > 0.025 {
				t.Fatalf("seed %d: P(vcpus<=%d)=%.4f, bounded Pareto wants %.4f", seed, thr, got, want)
			}
		}
	}
}

// ksStat computes the two-sided Kolmogorov-Smirnov statistic of samples
// against an analytic CDF.
func ksStat(samples []float64, cdf func(float64) float64) float64 {
	sort.Float64s(samples)
	n := float64(len(samples))
	d := 0.0
	for i, x := range samples {
		f := cdf(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// lognormalCDF with the package's (median, log-sigma) parameterisation.
func lognormalCDF(x, median, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-math.Log(median))/(sigma*math.Sqrt2))
}

// TestLifetimesMatchConfiguredDistributions KS-tests both lifetime modes
// against their configured lognormals, across seeds. The 1ms floor trims a
// vanishing amount of mass, so the KS distance stays near sampling noise.
func TestLifetimesMatchConfiguredDistributions(t *testing.T) {
	cfg := smallConfig()
	cfg.BaseRate = 800
	for _, seed := range []int64{11, 12, 13} {
		tr := Generate(seed, cfg)
		var work, life []float64
		for _, vm := range tr.VMs {
			if vm.Class == Batch {
				work = append(work, float64(vm.Work))
			} else {
				life = append(life, float64(vm.Lifetime))
			}
		}
		if len(work) < 1000 || len(life) < 500 {
			t.Fatalf("seed %d: too few samples (batch %d, service %d)", seed, len(work), len(life))
		}
		lf := cfg.Lifetime
		if d := ksStat(work, func(x float64) float64 {
			return lognormalCDF(x, float64(lf.EphemeralMean), lf.EphemeralSigma)
		}); d > 0.05 {
			t.Fatalf("seed %d: batch work KS distance %.4f vs configured lognormal", seed, d)
		}
		if d := ksStat(life, func(x float64) float64 {
			return lognormalCDF(x, float64(lf.LongMean), lf.LongSigma)
		}); d > 0.05 {
			t.Fatalf("seed %d: service lifetime KS distance %.4f vs configured lognormal", seed, d)
		}
		// Bimodal mix: empirical ephemeral fraction tracks the configured one.
		frac := float64(len(work)) / float64(len(work)+len(life))
		if math.Abs(frac-lf.EphemeralFrac) > 0.03 {
			t.Fatalf("seed %d: ephemeral fraction %.3f, configured %.3f", seed, frac, lf.EphemeralFrac)
		}
	}
}

// TestDiurnalModulation bins arrivals by hour-of-day across the horizon and
// checks the peak-to-trough ratio approaches (1+A)/(1-A).
func TestDiurnalModulation(t *testing.T) {
	cfg := smallConfig()
	cfg.Horizon = 48 * Hour
	cfg.BaseRate = 400
	bins := make([]int, 24)
	for _, seed := range []int64{21, 22} {
		tr := Generate(seed, cfg)
		for _, vm := range tr.VMs {
			hr := int(vm.At/sim.Time(Hour)) % 24
			bins[hr]++
		}
	}
	peak, trough := 0, math.MaxInt
	for _, b := range bins {
		if b > peak {
			peak = b
		}
		if b < trough {
			trough = b
		}
	}
	want := (1 + cfg.DiurnalAmplitude) / (1 - cfg.DiurnalAmplitude) // 4.0 at A=0.6
	ratio := float64(peak) / float64(trough)
	if ratio < want*0.6 || ratio > want*1.6 {
		t.Fatalf("peak/trough hourly arrivals %.2f, diurnal modulation wants ~%.1f", ratio, want)
	}
	// An unmodulated process must look flat through the same binning.
	flat := cfg
	flat.DiurnalAmplitude = 0
	fb := make([]int, 24)
	tr := Generate(23, flat)
	for _, vm := range tr.VMs {
		fb[int(vm.At/sim.Time(Hour))%24]++
	}
	fp, ft := 0, math.MaxInt
	for _, b := range fb {
		if b > fp {
			fp = b
		}
		if b < ft {
			ft = b
		}
	}
	if r := float64(fp) / float64(ft); r > 2.0 {
		t.Fatalf("unmodulated trace shows %.2fx hourly swing", r)
	}
}

// TestLognormalSizes covers the alternative size family end to end.
func TestLognormalSizes(t *testing.T) {
	cfg := smallConfig()
	cfg.Size = SizeDist{Kind: SizeLognormal, MinVCPUs: 1, MaxVCPUs: 16, Mu: 1.0, Sigma: 0.8}
	tr := Generate(9, cfg)
	seen := map[int]int{}
	for _, vm := range tr.VMs {
		if vm.VCPUs < 1 || vm.VCPUs > 16 {
			t.Fatalf("lognormal size %d out of bounds", vm.VCPUs)
		}
		seen[vm.VCPUs]++
	}
	// exp(mu)=e~2.7: mass must straddle the median, not pile on a clamp.
	if seen[1] == 0 || seen[2] == 0 || seen[4] == 0 {
		t.Fatalf("lognormal sizes degenerate: %v", seen)
	}
	if seen[16] > len(tr.VMs)/4 {
		t.Fatalf("lognormal sizes piled on the upper clamp: %v", seen)
	}
}

func TestSizeClampToLargestHost(t *testing.T) {
	cfg := smallConfig()
	cfg.Hosts = []HostClass{{Name: "tiny", Count: 4, Cores: 2, SMT: 2, SpeedFactor: 1.0}}
	tr := Generate(13, cfg)
	for _, vm := range tr.VMs {
		if vm.VCPUs > 4 {
			t.Fatalf("VM of %d vCPUs cannot be placed on 4-thread hosts", vm.VCPUs)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	cases := []struct {
		mut  func(*Config)
		want string // substring of the panic message
	}{
		{func(c *Config) { c.DiurnalAmplitude = 1.0 }, "diurnal amplitude"},
		{func(c *Config) { c.Size.MinVCPUs = 0 }, "size bounds"},
		{func(c *Config) { c.Size.MaxVCPUs = 0 }, "size bounds"},
		{func(c *Config) { c.Size.Alpha = -1 }, "pareto alpha"},
		{func(c *Config) { c.Lifetime.EphemeralFrac = 1.5 }, "ephemeral fraction"},
		{func(c *Config) { c.Lifetime.EphemeralMean = -Hour }, "ephemeral mean"},
		{func(c *Config) { c.Hosts = []HostClass{{Name: "bad", Count: 0, Cores: 1, SMT: 1, SpeedFactor: 1}} }, "count/cores/smt"},
		{func(c *Config) { c.Hosts = []HostClass{{Name: "bad", Count: 1, Cores: 1, SMT: 1, SpeedFactor: -1}} }, "speed factor"},
		{func(c *Config) { c.ServiceDemand = -0.5 }, "ServiceDemand"},
		{func(c *Config) { c.ServiceDemand = 1.5 }, "ServiceDemand"},
		// smallConfig's largest host has 16 threads.
		{func(c *Config) { c.Size.MinVCPUs = 20 }, "Size.MinVCPUs"},
		// Non-finite parameters. MaxVMs bounds the trace, so a generator
		// that lets one through returns instead of proposing forever.
		{func(c *Config) { c.MaxVMs, c.BaseRate = 1000, math.Inf(1) }, "BaseRate"},
		{func(c *Config) { c.MaxVMs, c.BaseRate = 1000, math.NaN() }, "BaseRate"},
		{func(c *Config) { c.MaxVMs, c.DiurnalAmplitude = 1000, math.NaN() }, "DiurnalAmplitude"},
		{func(c *Config) { c.MaxVMs, c.DiurnalPhase = 1000, math.Inf(-1) }, "DiurnalPhase"},
		{func(c *Config) { c.MaxVMs, c.Size.Alpha = 1000, math.NaN() }, "Size.Alpha"},
		{func(c *Config) {
			c.MaxVMs, c.Size = 1000, SizeDist{Kind: SizeLognormal, MinVCPUs: 1, MaxVCPUs: 16, Mu: math.NaN(), Sigma: 0.8}
		}, "Size.Mu"},
		{func(c *Config) {
			c.MaxVMs, c.Size = 1000, SizeDist{Kind: SizeLognormal, MinVCPUs: 1, MaxVCPUs: 16, Mu: 1, Sigma: math.Inf(1)}
		}, "Size.Sigma"},
		{func(c *Config) { c.MaxVMs, c.Lifetime.EphemeralSigma = 1000, math.NaN() }, "Lifetime.EphemeralSigma"},
		{func(c *Config) { c.MaxVMs, c.Lifetime.LongSigma = 1000, math.Inf(1) }, "Lifetime.LongSigma"},
	}
	for i, tc := range cases {
		cfg := smallConfig()
		tc.mut(&cfg)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Errorf("case %d: panic %q does not name %q", i, msg, tc.want)
				}
			}()
			Generate(1, cfg)
		}()
	}
}

// TestFaultScheduleIndependent: turning faults on must not perturb the VM or
// host sequences (the fault generator draws from its own sub-streams), and
// the schedule itself must be deterministic and non-empty at these MTBFs.
func TestFaultScheduleIndependent(t *testing.T) {
	plain := smallConfig()
	faulty := smallConfig()
	faulty.Faults = &faults.Config{
		CrashMTBF:    6 * Hour,
		BrownoutMTBF: 4 * Hour,
		StallMTBF:    2 * Hour,
		MigFailProb:  0.1,
	}
	a := Generate(7, plain)
	b := Generate(7, faulty)
	if !reflect.DeepEqual(a.VMs, b.VMs) || !reflect.DeepEqual(a.Hosts, b.Hosts) {
		t.Fatal("enabling faults changed the VM/host trace")
	}
	if a.Faults != nil {
		t.Fatal("fault schedule present without Config.Faults")
	}
	if b.Faults == nil || len(b.Faults.Events) == 0 {
		t.Fatal("Config.Faults set but no schedule generated")
	}
	c := Generate(7, faulty)
	if !reflect.DeepEqual(b.Faults, c.Faults) {
		t.Fatal("same seed produced different fault schedules")
	}
}

// BenchmarkGenerate times the full-size region trace the macro benchmark
// workloads replay.
func BenchmarkGenerate(b *testing.B) {
	cfg := regionConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTrace = Generate(42, cfg)
	}
}

var benchTrace Trace
