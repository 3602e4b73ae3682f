package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// SeriesSnapshot is one series' portable form: lifetime summary stats and
// the buckets covering the whole history. It is what gets embedded in
// harness artifacts and dumped by the CLIs.
type SeriesSnapshot struct {
	Name     string  `json:"name"`
	Volatile bool    `json:"volatile,omitempty"`
	Count    uint64  `json:"count"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Mean     float64 `json:"mean"`
	Last     float64 `json:"last"`
	// Buckets is the history, oldest first: every sample ever appended is in
	// exactly one bucket, and while Count fits the store each bucket is one
	// sample.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns the q-quantile of the series' full history from its
// buckets (bucket means weighted by count).
func (s *SeriesSnapshot) Quantile(q float64) float64 { return quantileOf(s.Buckets, q) }

// Snapshot is a whole recorder's exported state, series sorted by name.
type Snapshot struct {
	IntervalNS int64            `json:"interval_ns"`
	Samples    uint64           `json:"samples"`
	Series     []SeriesSnapshot `json:"series"`
}

// Snapshot exports one series.
func (s *Series) Snapshot() SeriesSnapshot {
	return SeriesSnapshot{
		Name:     s.Name,
		Volatile: s.Volatile,
		Count:    s.count,
		Min:      s.Min(),
		Max:      s.Max(),
		Mean:     s.Mean(),
		Last:     s.lastV,
		Buckets:  s.Buckets(),
	}
}

// Snapshot exports the recorder's series, sorted by name. With
// includeVolatile false — the deterministic snapshot — wall-clock-dependent
// series are left out, and the result is byte-identical across serial and
// parallel runs of the same scenario.
func (r *Recorder) Snapshot(includeVolatile bool) *Snapshot {
	out := &Snapshot{IntervalNS: int64(r.cfg.Interval), Samples: r.samples}
	for _, s := range r.Series(includeVolatile) {
		out.Series = append(out.Series, s.Snapshot())
	}
	return out
}

// WriteJSON writes the snapshot as one deterministic JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// ReadSnapshot decodes a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// CounterTracks converts the recorder's series into vtrace counter tracks,
// one point per bucket at (T0, mean), so a Perfetto export shows the sampled
// series as counter lanes alongside the event-derived tracks. A series that
// has not filled its store contributes every sample as it was recorded.
// Series are in name order and points in time order, so the export stays
// byte-deterministic.
func (r *Recorder) CounterTracks(includeVolatile bool) []vtrace.CounterTrack {
	t := vtrace.CounterTrack{Process: "telemetry"}
	for _, s := range r.Series(includeVolatile) {
		if len(s.buckets) == 0 {
			continue
		}
		cs := vtrace.CounterSeries{Name: s.Name, Points: make([]vtrace.CounterPoint, len(s.buckets))}
		for i, b := range s.buckets {
			cs.Points[i] = vtrace.CounterPoint{At: sim.Time(b.T0), Value: b.Mean()}
		}
		t.Series = append(t.Series, cs)
	}
	if len(t.Series) == 0 {
		return nil
	}
	return []vtrace.CounterTrack{t}
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders bucket means as width cells of block glyphs, scaled to
// the series' own min..max. Cell c shows the mean of the buckets whose index
// range [c*n/width, (c+1)*n/width) it covers, or, with fewer buckets than
// cells, the one bucket it falls in.
func sparkline(bs []Bucket, width int) string {
	var means []float64
	for _, b := range bs {
		if b.Count > 0 {
			means = append(means, b.Mean())
		}
	}
	n := len(means)
	if n == 0 {
		return strings.Repeat(" ", width)
	}
	cells := make([]float64, width)
	for c := range cells {
		lo, hi := c*n/width, (c+1)*n/width
		hi = max(hi, lo+1)
		sum := 0.0
		for _, m := range means[lo:hi] {
			sum += m
		}
		cells[c] = sum / float64(hi-lo)
	}
	lo, hi := slices.Min(cells), slices.Max(cells)
	var b strings.Builder
	for _, v := range cells {
		level := 0
		if f := (v - lo) / (hi - lo); f > 0 { // false for NaN and a flat series
			level = int(f * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[level])
	}
	return b.String()
}

// Summary renders one sparkline line per series — the -telemetry output of
// the CLIs. Deterministic for a deterministic snapshot.
func (s *Snapshot) Summary() string {
	if len(s.Series) == 0 {
		return "telemetry: no series\n"
	}
	w := 0
	for _, sr := range s.Series {
		if len(sr.Name) > w {
			w = len(sr.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: %d series, %d samples, interval %v\n",
		len(s.Series), s.Samples, sim.Duration(s.IntervalNS))
	for _, sr := range s.Series {
		fmt.Fprintf(&b, "  %-*s %s min=%.4g mean=%.4g p95=%.4g max=%.4g last=%.4g\n",
			w, sr.Name, sparkline(sr.Buckets, 32),
			sr.Min, sr.Mean, sr.Quantile(0.95), sr.Max, sr.Last)
	}
	return b.String()
}
