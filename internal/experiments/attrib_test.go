package experiments

import (
	"strings"
	"testing"

	"vsched/internal/core"
	"vsched/internal/latprof"
)

// attribAggregate runs one configuration across all three contention
// patterns and several seeds, and aggregates: summed breakdown plus the
// average p95-tail steal share. Aggregating damps per-run placement noise
// (the mill's harvest epochs are long) so the mechanism assertions test the
// techniques, not one seed's luck.
func attribAggregate(t *testing.T, seeds []int64, scale float64, feats core.Features) (tot latprof.Breakdown, tailSteal float64) {
	t.Helper()
	n := 0
	for _, seed := range seeds {
		o := Options{Seed: seed, Scale: scale}
		for _, pat := range attribPatterns() {
			prof := runAttrib(o, pat, feats)
			if err := prof.CheckConservation(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, pat.name, err)
			}
			if len(prof.Spans) < 100 {
				t.Fatalf("seed %d %s: only %d spans", seed, pat.name, len(prof.Spans))
			}
			b := prof.Totals()
			tot.Add(&b)
			tailSteal += prof.TailShare(latprof.StealWait, 0.95)
			n++
		}
	}
	return tot, tailSteal / float64(n)
}

// TestAttribMechanisms is the mechanism-story assertion of the attrib
// experiment: bvs must reduce the steal-wait share — overall and within the
// p95 tail of span wall time — versus the prober-only baseline, and ivh on
// top of bvs must reduce the runnable-wait share. The attribution shows
// *where* each technique removes latency, not only that latency dropped.
func TestAttribMechanisms(t *testing.T) {
	seeds := []int64{1, 7, 42}
	scale := 1.0
	if testing.Short() {
		scale = 0.5
	}
	cfgs := attribConfigs()
	base, baseTail := attribAggregate(t, seeds, scale, cfgs[0].feats)
	bvs, bvsTail := attribAggregate(t, seeds, scale, cfgs[1].feats)
	full, _ := attribAggregate(t, seeds, scale, cfgs[2].feats)

	if got, want := bvs.Share(latprof.StealWait), base.Share(latprof.StealWait); got >= want {
		t.Errorf("bvs must reduce steal-wait share: baseline %.3f, bvs %.3f", want, got)
	}
	if bvsTail >= baseTail {
		t.Errorf("bvs must reduce the steal-wait share of the p95 tail: baseline %.3f, bvs %.3f", baseTail, bvsTail)
	}
	if got, want := full.Share(latprof.RunnableWait), bvs.Share(latprof.RunnableWait); got >= want {
		t.Errorf("ivh must reduce runnable-wait share: bvs %.3f, bvs+ivh %.3f", want, got)
	}
}

// TestAttribReportShape runs the full experiment end to end at a small scale
// and checks the report rows, the mechanism note, and that each profile's
// summary reaches the trial's metrics for the artifact pipeline.
func TestAttribReportShape(t *testing.T) {
	stats := &Stats{}
	rep := Attrib(Options{Seed: 42, Scale: 0.1, Stats: stats})
	if len(rep.Rows) != 9 { // 3 patterns x 3 configs
		t.Fatalf("want 9 rows, got %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("row width %d != header %d: %v", len(row), len(rep.Header), row)
		}
	}
	snap := stats.MetricsSnapshot()
	for _, key := range []string{
		"attrib/balanced-5ms/baseline.steal_wait_share",
		"attrib/heavy-30/10/+bvs+ivh.runnable_wait_p95_ns",
		"attrib/bursty-40ms/+bvs.spans",
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("snapshot missing %q (have %d keys)", key, len(snap))
		}
	}
	joined := strings.Join(rep.Notes, "\n")
	if !strings.Contains(joined, "conservation") || !strings.Contains(joined, "steal-wait") {
		t.Fatalf("notes missing mechanism summary:\n%s", joined)
	}
}
