package latprof

import (
	"fmt"
	"sort"
	"strings"

	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Profile is the finished attribution report of one VM: every closed span,
// plus enough bookkeeping to judge the reconstruction's completeness.
type Profile struct {
	VM string
	// Spans shares storage with the profiler that built it: read it, never
	// write it.
	Spans []Span
	// Open counts spans still open at Finish time (settled but not closed;
	// excluded from Spans).
	Open int
	// Truncated counts spans discarded because their start or close was
	// not in the stream (tap attached late, or ring wrap).
	Truncated int
	// DroppedEvents is the source tracer's ring drop counter when the
	// profile was built post-hoc (FromTracer); 0 for live observers, which
	// never drop.
	DroppedEvents uint64
}

// Totals sums the breakdowns of all spans.
func (p *Profile) Totals() Breakdown {
	var b Breakdown
	for i := range p.Spans {
		b.Add(&p.Spans[i].Breakdown)
	}
	return b
}

// Wall sums the wall time of all spans.
func (p *Profile) Wall() sim.Duration {
	var w sim.Duration
	for i := range p.Spans {
		w += p.Spans[i].Wall()
	}
	return w
}

// Hist builds a histogram of one cause's per-span component (nanoseconds).
func (p *Profile) Hist(c Cause) *metrics.Histogram {
	h := metrics.NewHistogram()
	for i := range p.Spans {
		h.Observe(int64(p.Spans[i].NS[c]))
	}
	return h
}

// CheckConservation verifies the invariant on every span: the six
// components sum to the span's wall time exactly, in virtual nanoseconds.
func (p *Profile) CheckConservation() error {
	for i := range p.Spans {
		s := &p.Spans[i]
		if got, want := s.Breakdown.Total(), s.Wall(); got != want {
			return fmt.Errorf("latprof: span %d (task %s @%v) breakdown %v != wall %v",
				i, s.Task, s.Start, got, want)
		}
	}
	return nil
}

// TailShare returns cause c's share of wall time among the spans in the top
// (1-q) tail by wall time — "where does the p95 tail's time go" for
// q = 0.95. At least one span is always included; an empty profile returns
// 0. Ties in wall time break by span order, so the result is deterministic.
func (p *Profile) TailShare(c Cause, q float64) float64 {
	if len(p.Spans) == 0 {
		return 0
	}
	idx := make([]int, len(p.Spans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := p.Spans[idx[a]].Wall(), p.Spans[idx[b]].Wall()
		if wa != wb {
			return wa > wb
		}
		return idx[a] < idx[b]
	})
	n := int(float64(len(idx)) * (1 - q))
	if n < 1 {
		n = 1
	}
	var part, tot sim.Duration
	for _, i := range idx[:n] {
		part += p.Spans[i].NS[c]
		tot += p.Spans[i].Wall()
	}
	if tot <= 0 {
		return 0
	}
	return float64(part) / float64(tot)
}

// TopBlame aggregates steal-wait blame across all spans and returns the n
// worst offenders (all of them when n <= 0).
func (p *Profile) TopBlame(n int) []Blame {
	agg := map[string]sim.Duration{}
	for i := range p.Spans {
		for _, b := range p.Spans[i].StealBy {
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
	sortBlame(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Publish sets the profile's scalar summary as gauges in reg: the
// reconstruction counters (spans, open, truncated, dropped), then per cause,
// in Causes() order, its total (<cause>_ns), its share of wall time
// (<cause>_share) and its p95 per-span component (<cause>_p95_ns).
func (p *Profile) Publish(reg *metrics.Registry) {
	reg.Gauge("spans").Set(float64(len(p.Spans)))
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
	perTask := map[string][]int{}
	var names []string
	for i := range p.Spans {
		n := p.Spans[i].Task
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
			s := &p.Spans[i]
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
			th.Slices = append(th.Slices, vtrace.SpanSlice{
				Name: name,
				From: s.Start,
				To:   s.End,
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
		p.VM, len(p.Spans), p.Open, p.Truncated, p.DroppedEvents)
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
