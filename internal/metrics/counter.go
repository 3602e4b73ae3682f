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
