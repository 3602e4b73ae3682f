// Package sim provides the discrete-event simulation engine that all other
// packages are built on: a virtual clock, an ordered event queue with stable
// (deterministic) tie-breaking, cancellable events, and a seeded random
// number source so that every scenario is exactly reproducible.
//
// All simulated components share a single Engine. Components never sleep or
// use wall time; they schedule callbacks at absolute or relative virtual
// times and the engine executes them in order.
package sim

import "fmt"

// Time is an absolute virtual timestamp, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring package time but as sim durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string { return fmt.Sprintf("%.3fms", d.Milliseconds()) }
