//go:build race

package cloudgen

// raceEnabled reports a -race build. The differential tests then shrink their
// sweeps: the detector slows the single-goroutine arithmetic they run by
// about tenfold and has nothing to find in it.
const raceEnabled = true
