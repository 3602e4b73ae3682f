package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// roundTrip encodes points through one gorillaEnc and decodes them back.
func roundTrip(t *testing.T, pts []Point) {
	t.Helper()
	var e gorillaEnc
	for _, p := range pts {
		e.append(p.T, p.V)
	}
	got, err := decodeGorilla(nil, e.bytes(), e.n)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i].T != pts[i].T {
			t.Fatalf("point %d: t=%d want %d", i, got[i].T, pts[i].T)
		}
		if math.Float64bits(got[i].V) != math.Float64bits(pts[i].V) {
			t.Fatalf("point %d: v=%x want %x (%v vs %v)",
				i, math.Float64bits(got[i].V), math.Float64bits(pts[i].V), got[i].V, pts[i].V)
		}
	}
}

func TestGorillaRoundTrip(t *testing.T) {
	nan := math.NaN()
	payloadNaN := math.Float64frombits(0x7ff8000000001234) // NaN with payload
	cases := map[string][]Point{
		"single":    {{T: 0, V: 1}},
		"constant":  {{0, 5}, {100, 5}, {200, 5}, {300, 5}, {400, 5}},
		"monotonic": {{0, 0}, {100, 1}, {200, 2}, {300, 3}, {400, 4}},
		"jitter":    {{0, 1}, {103, 2}, {197, 1.5}, {305, 2.5}, {401, 1.25}},
		"specials": {
			{0, nan}, {1, math.Inf(1)}, {2, math.Inf(-1)}, {3, 0.0},
			{4, math.Copysign(0, -1)}, {5, payloadNaN}, {6, math.MaxFloat64},
			{7, math.SmallestNonzeroFloat64}, {8, -math.MaxFloat64},
		},
		"same-timestamp": {{50, 1}, {50, 2}, {50, 3}},
		"big-dod": {
			{0, 1}, {1, 2}, {1 << 40, 3}, {1<<40 + 5, 4}, {1 << 50, 5},
		},
	}
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, pts) })
	}
}

func TestGorillaRoundTripRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts []Point
	tm, v := int64(0), 100.0
	for i := 0; i < 5000; i++ {
		tm += 100_000_000 + rng.Int63n(2001) - 1000
		v += rng.NormFloat64()
		pts = append(pts, Point{tm, v})
	}
	roundTrip(t, pts)
}

func TestGorillaCompression(t *testing.T) {
	// A fixed-period constant series must compress to well under 2 bytes per
	// point (the package's headline claim).
	var e gorillaEnc
	const n = 4096
	for i := 0; i < n; i++ {
		e.append(int64(i)*100_000_000, 42)
	}
	if bpp := float64(e.size()) / n; bpp > 2 {
		t.Fatalf("constant series: %.2f bytes/point, want <= 2", bpp)
	}
}

func TestGorillaTruncated(t *testing.T) {
	var e gorillaEnc
	for i := 0; i < 100; i++ {
		e.append(int64(i)*100, float64(i)*1.5)
	}
	data := e.bytes()
	if _, err := decodeGorilla(nil, data[:len(data)/2], e.n); err == nil {
		t.Fatal("decoding a truncated stream should error, got nil")
	}
	// Claiming more points than encoded must error, not fabricate data.
	if _, err := decodeGorilla(nil, data, e.n+50); err == nil {
		t.Fatal("decoding with inflated count should error, got nil")
	}
}

func TestSeriesRollupInvariants(t *testing.T) {
	cfg := Config{RawChunkPoints: 64, RawChunks: 2, Tier1Cap: 40, Tier2Cap: 16}
	cfg = cfg.withDefaults()
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
	// Every sample is in exactly one merged bucket.
	var bucketN uint64
	var bucketSum float64
	prevT1 := int64(-1)
	for _, b := range s.Merged() {
		bucketN += uint64(b.Count)
		bucketSum += b.Sum
		if b.T0 <= prevT1 {
			t.Fatalf("bucket [%d,%d] overlaps previous end %d", b.T0, b.T1, prevT1)
		}
		prevT1 = b.T1
	}
	if bucketN != n {
		t.Fatalf("bucket counts sum to %d, want %d", bucketN, n)
	}
	if math.Abs(bucketSum-sum) > 1e-6*sum {
		t.Fatalf("bucket sums %v, want %v", bucketSum, sum)
	}
	// The raw window is bounded and holds the newest points.
	raw := s.RawPoints()
	maxRaw := (cfg.RawChunks + 1) * cfg.RawChunkPoints
	if len(raw) > maxRaw {
		t.Fatalf("raw window %d points, cap %d", len(raw), maxRaw)
	}
	if last := raw[len(raw)-1]; last.T != s.Last().T || last.V != s.Last().V {
		t.Fatalf("raw window tail %+v, want %+v", last, s.Last())
	}
	// Lifetime stats survive the rollups.
	if s.Min() < 0 || s.Max() > 100 || math.Abs(s.Mean()-50) > 1 {
		t.Fatalf("stats min=%v max=%v mean=%v", s.Min(), s.Max(), s.Mean())
	}
	if q := s.Quantile(0.5); math.Abs(q-50) > 15 {
		t.Fatalf("median estimate %v too far from 50", q)
	}
}

func TestSeriesMemoryBoundedForever(t *testing.T) {
	// The tier-2 pair-merge must bound memory for ANY horizon: push enough
	// samples through a tiny config to force several stride doublings.
	cfg := Config{RawChunkPoints: 32, RawChunks: 1, Tier1Cap: 20, Tier2Cap: 8}
	cfg = cfg.withDefaults()
	s := newSeries("x", false, &cfg)
	for i := 0; i < 1_000_000; i++ {
		s.Append(int64(i), float64(i%7))
	}
	if s.t2Stride <= rollupFactor*rollupFactor {
		t.Fatalf("expected stride doubling, still %d", s.t2Stride)
	}
	if got, max := s.Bytes(), MaxSeriesBytes(cfg); got > max {
		t.Fatalf("Bytes=%d exceeds bound %d", got, max)
	}
	var n uint64
	for _, b := range s.Merged() {
		n += uint64(b.Count)
	}
	if n != 1_000_000 {
		t.Fatalf("bucket counts sum to %d after stride doubling, want 1000000", n)
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

func TestEncodeChunksDecodeRaw(t *testing.T) {
	cfg := Config{RawChunkPoints: 16, RawChunks: 100, Tier1Cap: 512, Tier2Cap: 512}
	cfg = cfg.withDefaults()
	s := newSeries("x", false, &cfg)
	var want []Point
	for i := 0; i < 100; i++ { // 6 full chunks + open remainder
		p := Point{int64(i) * 1000, float64(i) * 0.5}
		want = append(want, p)
		s.Append(p.T, p.V)
	}
	got, err := DecodeRaw(s.encodeChunks())
	if err != nil {
		t.Fatalf("DecodeRaw: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %+v want %+v", i, got[i], want[i])
		}
	}
	if _, err := DecodeRaw([]byte{0xff}); err == nil {
		t.Fatal("corrupt chunk stream should error")
	}
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
		var b bytes.Buffer
		if err := buildRecorder(42).Snapshot(false).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
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
	var b bytes.Buffer
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != len(snap.Series) {
		t.Fatalf("round trip lost series: %d vs %d", len(back.Series), len(snap.Series))
	}
	pts, err := back.Series[0].Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != back.Series[0].RawN {
		t.Fatalf("decoded %d raw points, header says %d", len(pts), back.Series[0].RawN)
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
	if got := sparkline(nil, 8); got != strings.Repeat(" ", 8) {
		t.Fatalf("empty sparkline = %q", got)
	}
}

// Steady-state sampling cost: one full pass over a warm recorder must stay
// within an amortized allocation budget (chunk closes and slice growth are
// amortized; everything per-sample is allocation-free).
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
	// 8 series × ~19 bytes/point worst case, amortized over chunk lifetime:
	// the average must be well under one allocation per pass.
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
