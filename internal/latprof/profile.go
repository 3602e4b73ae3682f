package latprof

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Profile is the finished attribution report of one VM: every closed span,
// plus enough bookkeeping to judge the reconstruction's completeness. It
// shares its spans' storage with the profiler that built it, which never
// changes them.
type Profile struct {
	VM string
	// Open counts spans still open at Finish time (settled but not closed;
	// not among the profile's spans).
	Open int
	// Truncated counts spans discarded because their start or close was
	// not in the stream (tap attached late, or ring wrap).
	Truncated int
	// DroppedEvents is the source tracer's ring drop counter when the
	// profile was built post-hoc (FromTracer); 0 for live observers, which
	// never drop.
	DroppedEvents uint64

	// spans are the closed spans in close order and blame their steal
	// blame; tasks and ents are the names their task and entity indexes
	// name.
	spans chunked[spanRec]
	blame chunked[blameRec]
	tasks []string
	ents  []string
}

// Len returns the number of closed spans.
func (p *Profile) Len() int { return p.spans.n }

// Span rebuilds closed span i, 0 <= i < Len(), in close order.
func (p *Profile) Span(i int) Span {
	if i < 0 || i >= p.spans.n {
		panic(fmt.Sprintf("latprof: span %d of %d", i, p.spans.n))
	}
	r := p.spans.at(i)
	s := Span{
		Task:       p.tasks[r.task],
		TaskID:     r.taskID,
		Start:      r.start,
		End:        r.end,
		Breakdown:  r.Breakdown,
		WakerID:    r.wakerID,
		Migrations: int(r.migrations),
	}
	if r.nblame > 0 {
		s.StealBy = make([]Blame, r.nblame)
		for j := range s.StealBy {
			b := p.blame.at(int(r.blame) + j)
			s.StealBy[j] = Blame{Entity: p.ents[b.ent], Wait: b.wait}
		}
	}
	return s
}

// Totals sums the breakdowns of all spans.
func (p *Profile) Totals() Breakdown {
	var b Breakdown
	p.spans.each(func(_ int, r *spanRec) { b.Add(&r.Breakdown) })
	return b
}

// Wall sums the wall time of all spans.
func (p *Profile) Wall() sim.Duration {
	var w sim.Duration
	p.spans.each(func(_ int, r *spanRec) { w += r.wall() })
	return w
}

// Hist builds a histogram of one cause's per-span component (nanoseconds).
func (p *Profile) Hist(c Cause) *metrics.Histogram {
	h := metrics.NewHistogram()
	p.spans.each(func(_ int, r *spanRec) { h.Observe(int64(r.NS[c])) })
	return h
}

// CheckConservation verifies the invariant on every span: the six
// components sum to the span's wall time exactly, in virtual nanoseconds.
func (p *Profile) CheckConservation() error {
	var err error
	p.spans.each(func(i int, r *spanRec) {
		if got, want := r.Total(), r.wall(); got != want && err == nil {
			err = fmt.Errorf("latprof: span %d (task %s @%v) breakdown %v != wall %v",
				i, p.tasks[r.task], r.start, got, want)
		}
	})
	return err
}

// TailShare returns cause c's share of wall time among the spans in the top
// (1-q) tail by wall time — "where does the p95 tail's time go" for
// q = 0.95. The tail holds between one span and all of them, whatever q is
// (NaN included); an empty profile returns 0. Ties in wall time break by
// span order, so the result is deterministic.
func (p *Profile) TailShare(c Cause, q float64) float64 {
	if p.Len() == 0 {
		return 0
	}
	type entry struct {
		wall, part sim.Duration
		i          int
	}
	tail := make([]entry, 0, p.Len())
	p.spans.each(func(i int, r *spanRec) { tail = append(tail, entry{r.wall(), r.NS[c], i}) })
	slices.SortFunc(tail, func(a, b entry) int {
		if a.wall != b.wall {
			return cmp.Compare(b.wall, a.wall)
		}
		return cmp.Compare(a.i, b.i)
	})
	n := 1
	if f := float64(len(tail)) * (1 - q); f >= float64(len(tail)) {
		n = len(tail)
	} else if f >= 1 {
		n = int(f)
	}
	var part, tot sim.Duration
	for _, e := range tail[:n] {
		part += e.part
		tot += e.wall
	}
	if tot <= 0 {
		return 0
	}
	return float64(part) / float64(tot)
}

// TopBlame aggregates steal-wait blame across all spans and returns the n
// worst offenders (all of them when n <= 0).
func (p *Profile) TopBlame(n int) []Blame {
	// Every blame entry's wait is positive, so a zero total is a first sight.
	agg := make([]sim.Duration, len(p.ents))
	var seen []blameRec
	p.blame.each(func(_ int, b *blameRec) {
		if agg[b.ent] == 0 {
			seen = append(seen, blameRec{ent: b.ent})
		}
		agg[b.ent] += b.wait
	})
	if len(seen) == 0 {
		return nil
	}
	for i := range seen {
		seen[i].wait = agg[seen[i].ent]
	}
	sortBlame(seen, p.ents)
	if n > 0 && len(seen) > n {
		seen = seen[:n]
	}
	out := make([]Blame, len(seen))
	for i, b := range seen {
		out[i] = Blame{Entity: p.ents[b.ent], Wait: b.wait}
	}
	return out
}

// Publish sets the profile's scalar summary as gauges in reg: the
// reconstruction counters (spans, open, truncated, dropped), then per cause,
// in Causes() order, its total (<cause>_ns), its share of wall time
// (<cause>_share) and its p95 per-span component (<cause>_p95_ns).
func (p *Profile) Publish(reg *metrics.Registry) {
	reg.Gauge("spans").Set(float64(p.Len()))
	reg.Gauge("open").Set(float64(p.Open))
	reg.Gauge("truncated").Set(float64(p.Truncated))
	reg.Gauge("dropped").Set(float64(p.DroppedEvents))
	tot := p.Totals()
	for _, c := range Causes() {
		reg.Gauge(c.Key() + "_ns").Set(float64(tot.NS[c]))
		reg.Gauge(c.Key() + "_share").Set(tot.Share(c))
		reg.Gauge(c.Key() + "_p95_ns").Set(float64(p.Hist(c).P95()))
	}
}

// ChromeTrack renders the spans as a Perfetto-loadable attribution track:
// one thread per task name, one slice per span, per-cause nanoseconds (and
// steal blame count) as args.
func (p *Profile) ChromeTrack() vtrace.SpanTrack {
	perTask := make([][]*spanRec, len(p.tasks))
	p.spans.each(func(_ int, r *spanRec) { perTask[r.task] = append(perTask[r.task], r) })
	order := make([]int, len(p.tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(p.tasks[a], p.tasks[b]) })
	track := vtrace.SpanTrack{Process: "attribution"}
	for _, k := range order {
		th := vtrace.SpanThread{Name: p.tasks[k]}
		for _, r := range perTask[k] {
			args := make([]vtrace.SpanArg, 0, int(numCauses)+2)
			for _, c := range Causes() {
				args = append(args, vtrace.SpanArg{Key: c.Key() + "_ns", Value: int64(r.NS[c])})
			}
			args = append(args,
				vtrace.SpanArg{Key: "wall_ns", Value: int64(r.wall())},
				vtrace.SpanArg{Key: "migrations", Value: int64(r.migrations)},
			)
			name := p.tasks[k]
			if r.nblame > 0 {
				name += " ← " + p.ents[p.blame.at(int(r.blame)).ent]
			}
			th.Slices = append(th.Slices, vtrace.SpanSlice{
				Name: name,
				From: r.start,
				To:   r.end,
				Args: args,
			})
		}
		track.Threads = append(track.Threads, th)
	}
	return track
}

// String renders a compact ASCII attribution report.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latprof %s: %d spans (%d open, %d truncated, %d events dropped)\n",
		p.VM, p.Len(), p.Open, p.Truncated, p.DroppedEvents)
	tot := p.Totals()
	fmt.Fprintf(&b, "  %-14s %10s %7s %10s %10s %10s\n", "cause", "total ms", "share", "p50 ms", "p95 ms", "p99 ms")
	for _, c := range Causes() {
		h := p.Hist(c)
		fmt.Fprintf(&b, "  %-14s %10.3f %6.1f%% %10.3f %10.3f %10.3f\n",
			c, tot.NS[c].Milliseconds(), 100*tot.Share(c),
			float64(h.P50())/1e6, float64(h.P95())/1e6, float64(h.P99())/1e6)
	}
	if blame := p.TopBlame(3); len(blame) > 0 {
		parts := make([]string, len(blame))
		for i, bl := range blame {
			parts[i] = fmt.Sprintf("%s %.3fms", bl.Entity, bl.Wait.Milliseconds())
		}
		fmt.Fprintf(&b, "  steal blame: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}
