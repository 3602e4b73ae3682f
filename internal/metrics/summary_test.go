package metrics

import (
	"math"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary must read zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if got := s.Stddev(); math.Abs(got-2.138) > 0.001 {
		t.Fatalf("stddev=%v", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max=%v/%v", s.Min(), s.Max())
	}
}

func TestParseCell(t *testing.T) {
	cases := []struct {
		in     string
		v      float64
		suffix string
		ok     bool
	}{
		{"85%", 85, "%", true},
		{"+5%", 5, "%", true},
		{"-3%", -3, "%", true},
		{"1.23", 1.23, "", true},
		{"12", 12, "", true},
		{"2.03x", 2.03, "x", true},
		{"548ms", 548, "ms", true},
		{"inf", 0, "", false},
		{"#####.....", 0, "", false},
		{"masstree", 0, "", false},
		{"", 0, "", false},
		{"1.5q", 0, "", false},
	}
	for _, c := range cases {
		v, suffix, ok := ParseCell(c.in)
		if ok != c.ok || v != c.v || suffix != c.suffix {
			t.Fatalf("ParseCell(%q) = %v %q %v, want %v %q %v", c.in, v, suffix, ok, c.v, c.suffix, c.ok)
		}
	}
}

func TestFormatCell(t *testing.T) {
	var s Summary
	s.Add(85)
	if got := FormatCell(s, "%"); got != "85%" {
		t.Fatalf("single-sample cell %q", got)
	}
	s.Add(87)
	s.Add(89)
	want := "87±2% [85,89]"
	if got := FormatCell(s, "%"); got != want {
		t.Fatalf("aggregated cell %q want %q", got, want)
	}
}
