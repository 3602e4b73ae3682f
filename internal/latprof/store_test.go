package latprof

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"vsched/internal/host"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// TestSpanRecordCompact: a closed span's record stays at 96 bytes, and
// neither it nor a blame entry holds a pointer, so a profile's spans are
// memory the garbage collector never scans.
func TestSpanRecordCompact(t *testing.T) {
	if n := unsafe.Sizeof(spanRec{}); n > 96 {
		t.Fatalf("spanRec is %d bytes, want <= 96", n)
	}
	var walk func(owner string, ty reflect.Type) bool
	walk = func(owner string, ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return walk(owner, ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !walk(owner, ty.Field(i).Type) {
					t.Errorf("%s field %s (%s) holds a pointer", owner, ty.Field(i).Name, ty.Field(i).Type)
					return false
				}
			}
			return true
		}
		return false
	}
	walk("spanRec", reflect.TypeOf(spanRec{}))
	walk("blameRec", reflect.TypeOf(blameRec{}))
}

// TestSpanStoreBytes: on a warm profiler, closing spans allocates little
// more than their records' bytes (the span record and its blame entry):
// chunk growth never copies, and only the last chunk's slack is extra.
func TestSpanStoreBytes(t *testing.T) {
	const n = 10000
	f := newFeed(2.0)
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	var now sim.Time
	f.stealCycle(&now)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f.stealCycle(&now)
	}
	runtime.ReadMemStats(&after)
	records := n * (unsafe.Sizeof(spanRec{}) + unsafe.Sizeof(blameRec{}))
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(1.15*float64(records)); got > budget {
		t.Fatalf("closing %d spans allocated %d bytes, budget %d (%d bytes of records + 15%%)", n, got, budget, records)
	}
	if got := f.p.Finish(now).Len(); got != n+1 {
		t.Fatalf("spans = %d, want %d", got, n+1)
	}
}

// refProfile is the reference for the span store: every closed span as the
// Span value the profiler used to append to one growing []Span, and the
// profile methods as they read that slice.
type refProfile struct {
	vm              string
	spans           []Span
	open, truncated int
}

// refFeed drives a profiler and records the reference beside it: before a
// TaskOff closes a span, it settles the span (settling twice at one
// timestamp charges nothing) and appends the Span the close stores.
type refFeed struct {
	*feed
	ref []Span
}

func (f *refFeed) off(at sim.Time, task string, id, vcpu, still int64) {
	if ts := f.p.task(id); ts != nil && still != 1 && !ts.truncated {
		f.p.flushTask(ts, at)
		r := &ts.rec
		s := Span{Task: ts.task, TaskID: r.taskID, Start: r.start, End: at, Breakdown: r.Breakdown,
			WakerID: r.wakerID, Migrations: int(r.migrations)}
		for _, b := range ts.stealBy {
			s.StealBy = append(s.StealBy, Blame{Entity: f.p.fold.names[b.ent], Wait: b.wait})
		}
		refSortBlame(s.StealBy)
		f.ref = append(f.ref, s)
	}
	f.feed.off(at, task, id, vcpu, still)
}

// reference returns the reference of the profile p, which f's profiler
// returned when it had closed n spans.
func (f *refFeed) reference(p *Profile, n int) refProfile {
	return refProfile{vm: p.VM, spans: f.ref[:n:n], open: p.Open, truncated: p.Truncated}
}

func (r refProfile) totals() Breakdown {
	var b Breakdown
	for i := range r.spans {
		b.Add(&r.spans[i].Breakdown)
	}
	return b
}

func (r refProfile) hist(c Cause) *metrics.Histogram {
	h := metrics.NewHistogram()
	for i := range r.spans {
		h.Observe(int64(r.spans[i].NS[c]))
	}
	return h
}

func (r refProfile) topBlame(n int) []Blame {
	agg := map[string]sim.Duration{}
	for i := range r.spans {
		for _, b := range r.spans[i].StealBy {
			agg[b.Entity] += b.Wait
		}
	}
	if len(agg) == 0 {
		return nil
	}
	out := make([]Blame, 0, len(agg))
	for e, d := range agg {
		out = append(out, Blame{Entity: e, Wait: d})
	}
	refSortBlame(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// refSortBlame orders blame by wait (largest first), then entity name.
func refSortBlame(b []Blame) {
	slices.SortFunc(b, func(x, y Blame) int {
		if x.Wait != y.Wait {
			return cmp.Compare(y.Wait, x.Wait)
		}
		return strings.Compare(x.Entity, y.Entity)
	})
}

func (r refProfile) tailShare(c Cause, q float64) float64 {
	idx := make([]int, len(r.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := r.spans[idx[a]].Wall(), r.spans[idx[b]].Wall()
		if wa != wb {
			return wa > wb
		}
		return idx[a] < idx[b]
	})
	n := max(int(float64(len(idx))*(1-q)), 1)
	var part, tot sim.Duration
	for _, i := range idx[:n] {
		part += r.spans[i].NS[c]
		tot += r.spans[i].Wall()
	}
	return float64(part) / float64(tot)
}

func (r refProfile) published() map[string]float64 {
	reg := metrics.NewRegistry()
	reg.Gauge("spans").Set(float64(len(r.spans)))
	reg.Gauge("open").Set(float64(r.open))
	reg.Gauge("truncated").Set(float64(r.truncated))
	reg.Gauge("dropped").Set(0)
	tot := r.totals()
	for _, c := range Causes() {
		reg.Gauge(c.Key() + "_ns").Set(float64(tot.NS[c]))
		reg.Gauge(c.Key() + "_share").Set(tot.Share(c))
		reg.Gauge(c.Key() + "_p95_ns").Set(float64(r.hist(c).P95()))
	}
	m := map[string]float64{}
	reg.VisitNumeric(func(name string, v float64) { m[name] = v })
	return m
}

func (r refProfile) chromeTrack() vtrace.SpanTrack {
	perTask := map[string][]int{}
	var names []string
	for i := range r.spans {
		n := r.spans[i].Task
		if _, ok := perTask[n]; !ok {
			names = append(names, n)
		}
		perTask[n] = append(perTask[n], i)
	}
	sort.Strings(names)
	track := vtrace.SpanTrack{Process: "attribution"}
	for _, n := range names {
		th := vtrace.SpanThread{Name: n}
		for _, i := range perTask[n] {
			s := &r.spans[i]
			args := make([]vtrace.SpanArg, 0, int(numCauses)+2)
			for _, c := range Causes() {
				args = append(args, vtrace.SpanArg{Key: c.Key() + "_ns", Value: int64(s.NS[c])})
			}
			args = append(args,
				vtrace.SpanArg{Key: "wall_ns", Value: int64(s.Wall())},
				vtrace.SpanArg{Key: "migrations", Value: int64(s.Migrations)},
			)
			name := s.Task
			if len(s.StealBy) > 0 {
				name = s.Task + " ← " + s.StealBy[0].Entity
			}
			th.Slices = append(th.Slices, vtrace.SpanSlice{Name: name, From: s.Start, To: s.End, Args: args})
		}
		track.Threads = append(track.Threads, th)
	}
	return track
}

func (r refProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latprof %s: %d spans (%d open, %d truncated, %d events dropped)\n",
		r.vm, len(r.spans), r.open, r.truncated, 0)
	tot := r.totals()
	fmt.Fprintf(&b, "  %-14s %10s %7s %10s %10s %10s\n", "cause", "total ms", "share", "p50 ms", "p95 ms", "p99 ms")
	for _, c := range Causes() {
		h := r.hist(c)
		fmt.Fprintf(&b, "  %-14s %10.3f %6.1f%% %10.3f %10.3f %10.3f\n",
			c, tot.NS[c].Milliseconds(), 100*tot.Share(c),
			float64(h.P50())/1e6, float64(h.P95())/1e6, float64(h.P99())/1e6)
	}
	if blame := r.topBlame(3); len(blame) > 0 {
		parts := make([]string, len(blame))
		for i, bl := range blame {
			parts[i] = fmt.Sprintf("%s %.3fms", bl.Entity, bl.Wait.Milliseconds())
		}
		fmt.Fprintf(&b, "  steal blame: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// sameAsReference checks that every read of got matches the reference.
func sameAsReference(t *testing.T, what string, got *Profile, ref refProfile) {
	t.Helper()
	if got.Len() != len(ref.spans) {
		t.Fatalf("%s: %d spans, reference %d", what, got.Len(), len(ref.spans))
	}
	for i := range ref.spans {
		if s := got.Span(i); !reflect.DeepEqual(s, ref.spans[i]) {
			t.Fatalf("%s: span %d\n got %+v\nwant %+v", what, i, s, ref.spans[i])
		}
	}
	if g, w := got.String(), ref.String(); g != w {
		t.Fatalf("%s: report\n%s\nreference\n%s", what, g, w)
	}
	if g, w := published(got), ref.published(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: published %v, reference %v", what, g, w)
	}
	if g, w := got.ChromeTrack(), ref.chromeTrack(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ChromeTrack differs from the reference", what)
	}
	if g, w := got.TopBlame(0), ref.topBlame(0); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: TopBlame %+v, reference %+v", what, g, w)
	}
	var wall sim.Duration
	for i := range ref.spans {
		wall += ref.spans[i].Wall()
	}
	if g := got.Wall(); g != wall {
		t.Fatalf("%s: Wall %v, reference %v", what, g, wall)
	}
	for _, c := range Causes() {
		for _, q := range []float64{0, 0.5, 0.95, 0.99} {
			if g, w := got.TailShare(c, q), ref.tailShare(c, q); g != w {
				t.Fatalf("%s: TailShare(%s, %v) = %v, reference %v", what, c, q, g, w)
			}
		}
	}
	if err := got.CheckConservation(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestSpanStoreDifferential compares the span store with the reference on
// a stream that closes enough spans to fill chunks of several sizes in
// both stores: steal blame spread over several contenders with equal
// waits (so ties break by name), spans truncated at both ends, tasks that
// migrate, share names or change them, ids outside the dense task table,
// and a Finish, more spans, then a second Finish.
func TestSpanStoreDifferential(t *testing.T) {
	f := &refFeed{feed: newFeed(2.0)}
	f.ent(0, "vm/vcpu0", host.Blocked, host.Running, 0)
	f.ent(0, "vm/vcpu1", host.Blocked, host.Running, 1)
	f.speed(0, 0, 2e6)
	f.speed(0, 1, 15e5)
	rng := rand.New(rand.NewSource(5))
	tenants := []string{"tenant-c", "tenant-a", "tenant-b", "tenant-d"}
	ids := []int64{1, 2, 3, 4, -3, 1 << 40}
	names := []string{"web", "db", "web", "cache", "batch", "web"}
	var now sim.Time
	tick := func() sim.Time { now += sim.Time(rng.Intn(3)+1) * sim.Time(ms/4); return now }
	// stall descheduled vCPU v (homed on thread v) for d behind tenant e.
	stall := func(v int, e string, d sim.Duration) {
		vcpu := fmt.Sprintf("vm/vcpu%d", v)
		f.ent(now, vcpu, host.Running, host.Runnable, int64(v))
		f.ent(now, e, host.Runnable, host.Running, int64(v))
		now += sim.Time(d)
		f.ent(now, e, host.Running, host.Runnable, int64(v))
		f.ent(now, vcpu, host.Runnable, host.Running, int64(v))
	}
	span := func(k int) {
		i := rng.Intn(len(ids))
		id, name := ids[i], names[i]
		if rng.Intn(8) == 0 {
			name += "-renamed"
		}
		v := int64(rng.Intn(2))
		if rng.Intn(10) == 0 {
			f.on(tick(), name, id, v) // no wakeup seen: truncated
		} else {
			f.wakeup(tick(), name, id, v, int64(k%3)-1)
			if rng.Intn(12) == 0 {
				f.wakeup(tick(), name, id, v, -1) // lost close: the first is truncated
			}
			f.on(tick(), name, id, v)
		}
		for range rng.Intn(4) {
			tick()
			if rng.Intn(3) == 0 {
				// Equal waits on every contender, in a shuffled order.
				for _, j := range rng.Perm(len(tenants))[:rng.Intn(3)+2] {
					stall(int(v), tenants[j], ms/2)
				}
			} else {
				stall(int(v), tenants[rng.Intn(len(tenants))], sim.Duration(rng.Intn(4)+1)*ms/4)
			}
		}
		if rng.Intn(4) == 0 {
			f.off(tick(), name, id, v, 1)
			f.migrate(now, name, id, v, 1-v)
			v = 1 - v
			f.on(tick(), name, id, v)
		}
		f.off(tick(), name, id, v, 0)
	}

	for k := range 150 {
		span(k)
	}
	f.wakeup(tick(), "open", 9, 0, -1) // left open across both Finish calls
	first := f.p.Finish(now)
	n1 := first.Len()
	for k := range 450 {
		span(k)
	}
	second := f.p.Finish(now)

	if first.Truncated == 0 || second.Truncated <= first.Truncated || first.Open != 1 || second.Open != 1 {
		t.Fatalf("truncated %d then %d, open %d then %d; the stream must truncate spans and keep one open",
			first.Truncated, second.Truncated, first.Open, second.Open)
	}
	// At least three span chunks (16, 32 and 64 records) by the first
	// Finish, and more in both stores by the second.
	if len(first.spans.chunks) < 3 || len(second.spans.chunks) <= len(first.spans.chunks) ||
		len(second.blame.chunks) <= len(first.blame.chunks) {
		t.Fatalf("span chunks %d then %d, blame chunks %d then %d; the stream must fill chunks of several sizes",
			len(first.spans.chunks), len(second.spans.chunks), len(first.blame.chunks), len(second.blame.chunks))
	}
	ties := false
	for _, s := range f.ref {
		for j := 1; j < len(s.StealBy); j++ {
			ties = ties || s.StealBy[j].Wait == s.StealBy[j-1].Wait
		}
	}
	if !ties {
		t.Fatal("no span blames two contenders equally; the stream must tie")
	}
	sameAsReference(t, "first", first, f.reference(first, n1))
	sameAsReference(t, "second", second, f.reference(second, second.Len()))
}
