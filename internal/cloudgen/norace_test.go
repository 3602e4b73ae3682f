//go:build !race

package cloudgen

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
