package metrics

import (
	"math"
	"strconv"
	"strings"
)

// Summary accumulates mean, variance (Welford), min, and max of a sample
// stream. The experiment harness uses it to fold the same report cell across
// replicate seeds into mean±stddev [min,max] columns.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s Summary) N() uint64 { return s.n }

// Mean returns the mean (0 when empty).
func (s Summary) Mean() float64 { return s.mean }

// Stddev returns the sample standard deviation (0 for n < 2).
func (s Summary) Stddev() float64 {
	if s.n < 2 {
		return 0
	}
	v := s.m2 / float64(s.n-1)
	if v < 0 { // guard fp noise
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation (0 when empty).
func (s Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// cellSuffixes are the unit suffixes report cells use; anything else makes a
// cell non-numeric for aggregation purposes.
var cellSuffixes = []string{"", "%", "x", "ms", "s", "ns"}

// ParseCell splits a report cell like "85%", "+1.4x", "-3", or "12.05" into
// its numeric value and unit suffix. It returns ok=false for cells that are
// not a single number with a known suffix (labels, timelines, "inf", ...).
func ParseCell(cell string) (v float64, suffix string, ok bool) {
	s := strings.TrimSpace(cell)
	s = strings.TrimPrefix(s, "+")
	// Longest prefix that parses as a float.
	end := 0
	for i := 1; i <= len(s); i++ {
		if _, err := strconv.ParseFloat(s[:i], 64); err == nil {
			end = i
		}
	}
	if end == 0 {
		return 0, "", false
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, "", false
	}
	suffix = s[end:]
	for _, known := range cellSuffixes {
		if suffix == known {
			return v, suffix, true
		}
	}
	return 0, "", false
}

// FormatCell renders an aggregated cell as "mean±stddev{suffix} [min,max]".
// With a single observation it renders just the value, round-tripping what
// ParseCell read.
func FormatCell(s Summary, suffix string) string {
	if s.n <= 1 {
		return formatCellValue(s.Mean()) + suffix
	}
	return formatCellValue(s.Mean()) + "±" + formatCellValue(s.Stddev()) + suffix +
		" [" + formatCellValue(s.Min()) + "," + formatCellValue(s.Max()) + "]"
}

// formatCellValue formats with enough precision to distinguish seeds without
// drowning the table ("%.4g" keeps 85, 85.25, 0.0012 readable).
func formatCellValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}
