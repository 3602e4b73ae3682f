package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

func TestSeriesRollupInvariants(t *testing.T) {
	cfg := Config{Buckets: 40}.withDefaults()
	s := newSeries("x", false, &cfg)
	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := rng.Float64() * 100
		sum += v
		s.Append(int64(i)*100_000_000, v)
		if s.Bytes() > MaxSeriesBytes(cfg) {
			t.Fatalf("after %d samples: Bytes=%d exceeds MaxSeriesBytes=%d",
				i+1, s.Bytes(), MaxSeriesBytes(cfg))
		}
	}
	if s.Count() != n {
		t.Fatalf("Count=%d want %d", s.Count(), n)
	}
	// Every sample is in exactly one bucket, and every bucket but the last
	// holds exactly one stride of samples.
	bs := s.Buckets()
	if len(bs) > cfg.Buckets {
		t.Fatalf("%d buckets, cap %d", len(bs), cfg.Buckets)
	}
	var bucketN uint64
	var bucketSum float64
	prevT1 := int64(-1)
	for i, b := range bs {
		bucketN += uint64(b.Count)
		bucketSum += b.Sum
		if b.T0 <= prevT1 {
			t.Fatalf("bucket [%d,%d] overlaps previous end %d", b.T0, b.T1, prevT1)
		}
		prevT1 = b.T1
		if i < len(bs)-1 && uint64(b.Count) != s.stride {
			t.Fatalf("bucket %d holds %d samples, stride %d", i, b.Count, s.stride)
		}
	}
	if bucketN != n {
		t.Fatalf("bucket counts sum to %d, want %d", bucketN, n)
	}
	if math.Abs(bucketSum-sum) > 1e-6*sum {
		t.Fatalf("bucket sums %v, want %v", bucketSum, sum)
	}
	if last := bs[len(bs)-1]; last.T1 != s.Last().T {
		t.Fatalf("last bucket ends at %d, want %d", last.T1, s.Last().T)
	}
	// Lifetime stats survive the merges.
	if s.Min() < 0 || s.Max() > 100 || math.Abs(s.Mean()-50) > 1 {
		t.Fatalf("stats min=%v max=%v mean=%v", s.Min(), s.Max(), s.Mean())
	}
	if q := s.Quantile(0.5); math.Abs(q-50) > 15 {
		t.Fatalf("median estimate %v too far from 50", q)
	}
}

// TestSeriesExactUntilFull: up to Buckets samples the store is the samples
// themselves, one per bucket, bit for bit, and quantiles are exact; the
// next sample halves the store.
func TestSeriesExactUntilFull(t *testing.T) {
	cfg := Config{Buckets: 64}.withDefaults()
	s := newSeries("x", false, &cfg)
	rng := rand.New(rand.NewSource(3))
	var want []Point
	for i := 0; i < cfg.Buckets; i++ {
		p := Point{int64(i) * 1000, rng.NormFloat64()}
		if i == 5 {
			p.V = math.Copysign(0, -1)
		}
		want = append(want, p)
		s.Append(p.T, p.V)
	}
	bs := s.Buckets()
	if len(bs) != len(want) {
		t.Fatalf("%d buckets for %d samples", len(bs), len(want))
	}
	vals := make([]float64, len(want))
	for i, b := range bs {
		if b.Count != 1 || b.T0 != want[i].T || b.T1 != want[i].T ||
			math.Float64bits(b.Sum) != math.Float64bits(want[i].V) ||
			math.Float64bits(b.Mean()) != math.Float64bits(want[i].V) {
			t.Fatalf("bucket %d = %+v, want sample %+v", i, b, want[i])
		}
		vals[i] = want[i].V
	}
	// Exact p95: the sample of rank ceil(0.95 n).
	sort.Float64s(vals)
	if got, exact := s.Quantile(0.95), vals[int(math.Ceil(0.95*float64(len(vals))))-1]; got != exact {
		t.Fatalf("p95 %v, exact %v", got, exact)
	}
	s.Append(int64(cfg.Buckets)*1000, 1)
	if n := len(s.Buckets()); n != cfg.Buckets/2+1 || s.stride != 2 {
		t.Fatalf("after the store filled: %d buckets, stride %d; want %d, 2", n, s.stride, cfg.Buckets/2+1)
	}
}

func TestSeriesMemoryBoundedForever(t *testing.T) {
	// The pair-merge must bound memory for ANY horizon: push enough samples
	// through small stores to force many stride doublings. 100 and 7 are
	// not powers of two, so slice growth must be clipped at Buckets.
	for _, buckets := range []int{8, 100, 7, 1} {
		cfg := Config{Buckets: buckets}.withDefaults()
		s := newSeries("x", false, &cfg)
		for i := 0; i < 1_000_000; i++ {
			s.Append(int64(i), float64(i%7))
			if i%1000 == 0 && s.Bytes() > MaxSeriesBytes(cfg) {
				t.Fatalf("buckets=%d: after %d samples Bytes=%d exceeds bound %d",
					buckets, i+1, s.Bytes(), MaxSeriesBytes(cfg))
			}
		}
		if s.stride < 1_000_000/uint64(buckets) {
			t.Fatalf("buckets=%d: expected stride doubling, stride %d", buckets, s.stride)
		}
		if got, max := s.Bytes(), MaxSeriesBytes(cfg); got > max {
			t.Fatalf("buckets=%d: Bytes=%d exceeds bound %d", buckets, got, max)
		}
		if got := cap(s.buckets); got > buckets {
			t.Fatalf("buckets=%d: store capacity %d", buckets, got)
		}
		var n uint64
		for _, b := range s.Buckets() {
			n += uint64(b.Count)
		}
		if n != 1_000_000 {
			t.Fatalf("buckets=%d: bucket counts sum to %d after stride doubling, want 1000000", buckets, n)
		}
	}
}

func TestSeriesRegressingTimestampPanics(t *testing.T) {
	cfg := Config{}.withDefaults()
	s := newSeries("x", false, &cfg)
	s.Append(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("regressing timestamp should panic")
		}
	}()
	s.Append(99, 2)
}

// buildRecorder runs a small simulation with a registry source and returns
// the recorder after the run.
func buildRecorder(seed int64) *Recorder {
	eng := sim.NewEngine(seed)
	reg := metrics.NewRegistry()
	work := reg.Counter("work.done")
	depth := reg.Gauge("queue.depth")
	lat := reg.Histogram("op.latency")
	rec := New(eng, Config{Interval: 10 * sim.Millisecond})
	rec.AddSource("app.", RegistrySource(reg))
	rec.AddSource("self.", &SelfSource{Eng: eng})
	rec.Start()
	var step func()
	step = func() {
		work.Inc()
		depth.Set(float64(eng.Fired() % 17))
		lat.Observe(int64(eng.Fired()*1000) % 1_000_000)
		if eng.Now() < sim.Time(2*sim.Second) {
			eng.After(sim.Millisecond, step)
		}
	}
	eng.After(sim.Millisecond, step)
	eng.Run(sim.Time(2 * sim.Second))
	return rec
}

func TestRecorderSampling(t *testing.T) {
	rec := buildRecorder(42)
	if rec.Samples() == 0 {
		t.Fatal("no samples collected")
	}
	s := rec.Get("app.work.done")
	if s == nil {
		t.Fatal("registry counter series missing")
	}
	if s.Count() != rec.Samples() {
		t.Fatalf("series has %d samples, recorder ran %d passes", s.Count(), rec.Samples())
	}
	// Counter is monotone: last sample must be the max.
	if s.Last().V != s.Max() {
		t.Fatalf("monotone counter: last=%v max=%v", s.Last().V, s.Max())
	}
	for _, name := range []string{"app.op.latency.p95", "app.op.latency.count", "self.sim.pending", "self.sim.fired"} {
		if rec.Get(name) == nil {
			t.Fatalf("series %s missing", name)
		}
	}
	if rec.Bytes() > rec.MaxBytes() {
		t.Fatalf("Bytes=%d exceeds MaxBytes=%d", rec.Bytes(), rec.MaxBytes())
	}
}

// TestSelfSourceTracerCensus: the tracer's lifetime emits and ring drops
// reach every name→value surface through SelfSource, and a run without a
// tracer has no vtrace names.
func TestSelfSourceTracerCensus(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := vtrace.New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), vtrace.KindEntityState, "vm0", 0, 1, 0)
	}
	got := map[string]float64{}
	(&SelfSource{Eng: eng, Tracer: tr}).Collect(0, func(name string, v float64) { got[name] = v })
	// Ring capacity 4, 10 emits: 6 overwritten.
	if got["vtrace.emitted"] != 10 || got["vtrace.dropped"] != 6 {
		t.Fatalf("tracer census: %v", got)
	}
	(&SelfSource{Eng: eng}).Collect(0, func(name string, _ float64) {
		if strings.HasPrefix(name, "vtrace.") {
			t.Fatalf("no tracer, but SelfSource emitted %q", name)
		}
	})
}

func TestRecorderDeterminism(t *testing.T) {
	snap := func() []byte {
		b, err := json.Marshal(buildRecorder(42).Snapshot(false))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := snap(), snap()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different snapshots")
	}
}

func TestVolatileExcluded(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, Config{})
	rec.AddVolatileSource("w.", SourceFunc(func(now sim.Time, emit func(string, float64)) {
		emit("wall", 123)
	}))
	rec.AddSource("d.", SourceFunc(func(now sim.Time, emit func(string, float64)) {
		emit("det", 1)
	}))
	rec.SampleNow()
	if got := len(rec.Series(false)); got != 1 {
		t.Fatalf("deterministic view has %d series, want 1", got)
	}
	if got := len(rec.Series(true)); got != 2 {
		t.Fatalf("full view has %d series, want 2", got)
	}
	snap := rec.Snapshot(false)
	for _, s := range snap.Series {
		if s.Volatile {
			t.Fatalf("volatile series %s in deterministic snapshot", s.Name)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rec := buildRecorder(7)
	snap := rec.Snapshot(true)
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != len(snap.Series) {
		t.Fatalf("round trip lost series: %d vs %d", len(back.Series), len(snap.Series))
	}
	for i, sr := range back.Series {
		if !reflect.DeepEqual(sr, snap.Series[i]) {
			t.Fatalf("series %s changed in the round trip", sr.Name)
		}
	}
	sum := snap.Summary()
	if !strings.Contains(sum, "app.work.done") {
		t.Fatalf("summary missing series name:\n%s", sum)
	}
}

func TestCounterTracks(t *testing.T) {
	rec := buildRecorder(3)
	tracks := rec.CounterTracks(false)
	if len(tracks) != 1 || tracks[0].Process != "telemetry" {
		t.Fatalf("tracks = %+v", tracks)
	}
	if len(tracks[0].Series) == 0 {
		t.Fatal("no counter series")
	}
	prev := ""
	for _, cs := range tracks[0].Series {
		if cs.Name <= prev {
			t.Fatalf("series out of order: %q after %q", cs.Name, prev)
		}
		prev = cs.Name
		for i := 1; i < len(cs.Points); i++ {
			if cs.Points[i].At < cs.Points[i-1].At {
				t.Fatalf("series %s: points out of order", cs.Name)
			}
		}
	}
}

func TestMaxSeriesBytesIsJSONStable(t *testing.T) {
	// Snapshot must marshal cleanly (no NaN/Inf in summary fields for finite
	// inputs) — guard the harness embedding path.
	rec := buildRecorder(5)
	if _, err := json.Marshal(rec.Snapshot(true)); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestRecorderStop(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, Config{Interval: sim.Millisecond})
	rec.AddSource("", SourceFunc(func(now sim.Time, emit func(string, float64)) { emit("x", 1) }))
	rec.Start()
	eng.Run(sim.Time(10 * sim.Millisecond))
	got := rec.Samples()
	rec.Stop()
	eng.Run(sim.Time(20 * sim.Millisecond))
	if rec.Samples() > got+1 {
		t.Fatalf("recorder kept sampling after Stop: %d then %d", got, rec.Samples())
	}
}

func TestSparkline(t *testing.T) {
	bs := []Bucket{}
	for i := 0; i < 64; i++ {
		b := Bucket{}
		b.add(int64(i), float64(i))
		bs = append(bs, b)
	}
	sl := sparkline(bs, 16)
	if n := len([]rune(sl)); n != 16 {
		t.Fatalf("sparkline width %d, want 16", n)
	}
	runes := []rune(sl)
	if runes[0] != sparkRunes[0] || runes[15] != sparkRunes[len(sparkRunes)-1] {
		t.Fatalf("ramp should span min..max glyphs: %q", sl)
	}
	// Fewer buckets than cells: every cell shows the bucket it falls in, so
	// a 30-sample run fills all 32 cells with a rising ramp.
	sl = sparkline(bs[:30], 32)
	runes = []rune(sl)
	if len(runes) != 32 || strings.ContainsRune(sl, ' ') {
		t.Fatalf("30 buckets over 32 cells left blanks: %q", sl)
	}
	if runes[0] != sparkRunes[0] || runes[31] != sparkRunes[len(sparkRunes)-1] {
		t.Fatalf("ramp should span min..max glyphs: %q", sl)
	}
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Fatalf("ramp falls at cell %d: %q", i, sl)
		}
	}
	if got := sparkline(nil, 8); got != strings.Repeat(" ", 8) {
		t.Fatalf("empty sparkline = %q", got)
	}
}

// Steady-state sampling cost: one full pass over a warm recorder must stay
// within an amortized allocation budget (bucket arrays stop growing once a
// store is full; everything per-sample is allocation-free).
func TestRecorderAllocBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	reg.Counter("c").Add(10)
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(100)
	rec := New(eng, Config{})
	rec.AddSource("app.", RegistrySource(reg))
	for i := 0; i < 3000; i++ { // warm: caches built, buffers grown
		rec.SampleNow()
	}
	avg := testing.AllocsPerRun(2000, func() { rec.SampleNow() })
	// The warm-up filled every store, so the average must be well under one
	// allocation per pass.
	if avg > 0.5 {
		t.Fatalf("steady-state sample pass: %.3f allocs/op, want < 0.5", avg)
	}
}

func BenchmarkRecorderSampleNow(b *testing.B) {
	eng := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	reg.Counter("c").Add(10)
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(100)
	rec := New(eng, Config{})
	rec.AddSource("app.", RegistrySource(reg))
	rec.SampleNow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.SampleNow()
	}
}
