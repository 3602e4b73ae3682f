package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// SeriesSnapshot is one series' portable form: lifetime summary stats, the
// Gorilla-compressed raw window (a chunk stream decodable with DecodeRaw),
// and the rollup buckets covering the whole history. It is what gets
// embedded in harness artifacts and dumped by the CLIs.
type SeriesSnapshot struct {
	Name     string  `json:"name"`
	Volatile bool    `json:"volatile,omitempty"`
	Count    uint64  `json:"count"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Mean     float64 `json:"mean"`
	Last     float64 `json:"last"`
	// RawN is the number of points in Raw (the newest samples; older ones
	// survive only as Buckets).
	RawN int `json:"raw_n"`
	// Raw is the compressed raw window; encoding/json base64s it.
	Raw []byte `json:"raw,omitempty"`
	// Buckets is the rollup history (Merged): every sample ever appended is
	// in exactly one bucket.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile of the series' full history from its
// rollup buckets (bucket means weighted by count).
func (s *SeriesSnapshot) Quantile(q float64) float64 { return quantileOf(s.Buckets, q) }

// Points decodes the snapshot's raw window.
func (s *SeriesSnapshot) Points() ([]Point, error) { return DecodeRaw(s.Raw) }

// Snapshot is a whole recorder's exported state, series sorted by name.
type Snapshot struct {
	IntervalNS int64            `json:"interval_ns"`
	Samples    uint64           `json:"samples"`
	Series     []SeriesSnapshot `json:"series"`
}

// Snapshot exports one series.
func (s *Series) Snapshot() SeriesSnapshot {
	rawN := s.enc.n
	for _, c := range s.chunks {
		rawN += c.n
	}
	return SeriesSnapshot{
		Name:     s.Name,
		Volatile: s.Volatile,
		Count:    s.count,
		Min:      s.Min(),
		Max:      s.Max(),
		Mean:     s.Mean(),
		Last:     s.lastV,
		RawN:     rawN,
		Raw:      s.encodeChunks(),
		Buckets:  s.Merged(),
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

// CounterTracks converts the recorder's raw windows into vtrace counter
// tracks, so a Perfetto export shows the sampled series as counter lanes
// alongside the event-derived tracks. Series are in name order and points in
// time order, so the export stays byte-deterministic.
func (r *Recorder) CounterTracks(includeVolatile bool) []vtrace.CounterTrack {
	series := r.Series(includeVolatile)
	if len(series) == 0 {
		return nil
	}
	t := vtrace.CounterTrack{Process: "telemetry"}
	for _, s := range series {
		pts := s.RawPoints()
		if len(pts) == 0 {
			continue
		}
		cs := vtrace.CounterSeries{Name: s.Name, Points: make([]vtrace.CounterPoint, len(pts))}
		for i, p := range pts {
			cs.Points[i] = vtrace.CounterPoint{At: sim.Time(p.T), Value: p.V}
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
// the series' own min..max. Buckets map to cells proportionally by index.
func sparkline(bs []Bucket, width int) string {
	cells := make([]float64, width)
	counts := make([]int, width)
	n := 0
	for _, b := range bs {
		if b.Count > 0 {
			n++
		}
	}
	if n == 0 {
		return strings.Repeat(" ", width)
	}
	i := 0
	for _, b := range bs {
		if b.Count == 0 {
			continue
		}
		cell := i * width / n
		cells[cell] += b.Mean()
		counts[cell]++
		i++
	}
	lo, hi := 0.0, 0.0
	first := true
	for c, k := range counts {
		if k == 0 {
			continue
		}
		v := cells[c] / float64(k)
		cells[c] = v
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	var b strings.Builder
	for c, k := range counts {
		if k == 0 {
			b.WriteByte(' ')
			continue
		}
		level := 0
		if hi > lo {
			level = int((cells[c] - lo) / (hi - lo) * float64(len(sparkRunes)-1))
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
