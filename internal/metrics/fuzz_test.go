package metrics

import "testing"

// FuzzHistogramQuantile drives the bucketed histogram with arbitrary sample
// streams, checking structural invariants against the exact quantile.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 255})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHistogram()
		var samples []int64
		for i := 0; i+1 < len(data); i += 2 {
			v := int64(data[i])<<8 | int64(data[i+1])
			v = v * v // spread across magnitudes
			h.Observe(v)
			samples = append(samples, v)
		}
		if h.Count() != uint64(len(samples)) {
			t.Fatalf("count %d != %d", h.Count(), len(samples))
		}
		if len(samples) == 0 {
			return
		}
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			est := h.Quantile(q)
			exact := ExactQuantile(samples, q)
			if est > h.Max() || (q > 0 && est > exact) && float64(est-exact) > 0.04*float64(exact)+1 {
				t.Fatalf("q=%v est=%d exact=%d max=%d", q, est, exact, h.Max())
			}
		}
		if h.Min() > h.Max() {
			t.Fatal("min > max")
		}
	})
}
