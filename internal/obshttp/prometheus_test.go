package obshttp

import (
	"math"
	"strings"
	"testing"

	"vsched/internal/progress"
)

// TestExpositionGolden pins the full exposition byte-for-byte, including
// hostile label values (quotes, backslashes, newlines, UTF-8) and the
// special float spellings.
func TestExpositionGolden(t *testing.T) {
	runs := []runExpo{
		{
			id:        "obsplane",
			published: 42,
			samples: []progress.Sample{
				{Name: "fleet.macro.placed", Value: 115000},
				{Name: `weird"name`, Value: 1.5},
				{Name: "back\\slash", Value: -2},
				{Name: "new\nline", Value: 0.1},
				{Name: "unicode.héllo", Value: 3},
				{Name: "fleet.macro.util_mean", Value: 0.625},
				{Name: "nan.series", Value: math.NaN()},
				{Name: "sim.wheel.resident", Value: 1024},
				{Name: "inf.up", Value: math.Inf(1)},
				{Name: "inf.down", Value: math.Inf(-1)},
			},
		},
		{id: `run"2`, published: 0, samples: nil},
	}
	got := string(appendExposition(nil, 7, runs))
	want := `# HELP vsched_up Whether the observability server is serving.
# TYPE vsched_up gauge
vsched_up 1
# HELP vsched_obs_scrapes_total Number of /metrics scrapes served.
# TYPE vsched_obs_scrapes_total counter
vsched_obs_scrapes_total 7
# HELP vsched_obs_events_published_total Progress events published to the run's bus.
# TYPE vsched_obs_events_published_total counter
# HELP vsched_metric Live simulator value (registry counter, gauge or histogram key, fleet aggregate, engine or recorder self-census), published at simulation safepoints.
# TYPE vsched_metric gauge
vsched_obs_events_published_total{run="obsplane"} 42
vsched_metric{run="obsplane",name="fleet.macro.placed"} 115000
vsched_metric{run="obsplane",name="weird\"name"} 1.5
vsched_metric{run="obsplane",name="back\\slash"} -2
vsched_metric{run="obsplane",name="new\nline"} 0.1
vsched_metric{run="obsplane",name="unicode.héllo"} 3
vsched_metric{run="obsplane",name="fleet.macro.util_mean"} 0.625
vsched_metric{run="obsplane",name="nan.series"} NaN
vsched_metric{run="obsplane",name="sim.wheel.resident"} 1024
vsched_metric{run="obsplane",name="inf.up"} +Inf
vsched_metric{run="obsplane",name="inf.down"} -Inf
vsched_obs_events_published_total{run="run\"2"} 0
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionValidTextFormat checks structural validity of every
// non-comment line: name{labels} value, balanced quotes, no raw newlines
// inside label values.
func TestExpositionValidTextFormat(t *testing.T) {
	runs := []runExpo{{
		id:        "r\n1",
		published: 1,
		samples: []progress.Sample{
			{Name: "a\nb\"c\\d", Value: math.NaN()},
		},
	}}
	out := string(appendExposition(nil, 1, runs))
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if name == "" || rest == "" {
			t.Fatalf("malformed line %q", line)
		}
		base, _, hasLabels := strings.Cut(name, "{")
		for _, c := range base {
			if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
				t.Fatalf("illegal metric name char %q in line %q", c, line)
			}
		}
		if hasLabels && !strings.HasSuffix(name, "}") {
			t.Fatalf("unbalanced label braces in %q", line)
		}
	}
}

// TestAppendSampleAllocFree proves the per-value exposition path allocates
// nothing once the response buffer has capacity.
func TestAppendSampleAllocFree(t *testing.T) {
	buf := make([]byte, 0, 4096)
	sm := progress.Sample{Name: "fleet.macro.placed", Value: 12345.678}
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendSample(buf[:0], "obsplane", sm)
	})
	if allocs != 0 {
		t.Fatalf("appendSample allocates %.1f per value, want 0", allocs)
	}
	runs := []runExpo{{id: "r", published: 9, samples: []progress.Sample{sm, sm, sm}}}
	big := make([]byte, 0, 1<<16)
	allocs = testing.AllocsPerRun(1000, func() {
		big = appendExposition(big[:0], 3, runs)
	})
	if allocs != 0 {
		t.Fatalf("appendExposition allocates %.1f per scrape, want 0", allocs)
	}
}

func TestAppendEscaped(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`a\b`, `a\\b`},
		{`a"b`, `a\"b`},
		{"a\nb", `a\nb`},
		{"héllo", "héllo"},
		{"", ""},
		{"\\\"\n", `\\\"\n`},
	} {
		if got := string(appendEscaped(nil, tc.in)); got != tc.want {
			t.Errorf("appendEscaped(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
