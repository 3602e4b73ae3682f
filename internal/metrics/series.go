package metrics

// Counter is a monotonically increasing event count.
type Counter struct{ n uint64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds k to the counter.
func (c *Counter) Add(k uint64) { c.n += k }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Gauge is a point-in-time value that can move in either direction (queue
// depth, published capacity, current straggler count).
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Point is one (time, value) sample of a time series. Time is in seconds of
// virtual time.
type Point struct {
	T float64
	V float64
}

// TimeSeries is an append-only sequence of timestamped values, used for the
// "live throughput" figures (16, 17).
type TimeSeries struct {
	Points []Point
}

// Append adds a point; timestamps are expected to be non-decreasing.
func (ts *TimeSeries) Append(t, v float64) {
	ts.Points = append(ts.Points, Point{T: t, V: v})
}

// MeanBetween returns the mean value of points with t0 <= T < t1.
func (ts *TimeSeries) MeanBetween(t0, t1 float64) float64 {
	var s float64
	var n int
	for _, p := range ts.Points {
		if p.T >= t0 && p.T < t1 {
			s += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
