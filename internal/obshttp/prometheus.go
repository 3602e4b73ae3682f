package obshttp

import (
	"strconv"

	"vsched/internal/progress"
)

// Prometheus text-format exposition (version 0.0.4). Simulator metric names
// are dotted ("fleet.macro.placed"), which is not a legal Prometheus metric
// name, so every mirrored sample goes into one fixed, legal family,
// vsched_metric, and the simulator name travels as a label value — where
// arbitrary bytes are legal once \, ", and newline are escaped.
//
// The steady-state path is allocation-free beyond the response buffer:
// every writer below appends into a caller-owned []byte (strconv.Append*,
// no fmt, no intermediate strings).

const expoHeader = `# HELP vsched_up Whether the observability server is serving.
# TYPE vsched_up gauge
vsched_up 1
# HELP vsched_obs_scrapes_total Number of /metrics scrapes served.
# TYPE vsched_obs_scrapes_total counter
`

const expoFamilies = `# HELP vsched_obs_events_published_total Progress events published to the run's bus.
# TYPE vsched_obs_events_published_total counter
# HELP vsched_metric Live simulator value (registry counter, gauge or histogram key, fleet aggregate, engine or recorder self-census), published at simulation safepoints.
# TYPE vsched_metric gauge
`

// runExpo is one run's scrape-time state: the immutable mirror snapshot
// plus bus counters.
type runExpo struct {
	id        string
	published uint64
	samples   []progress.Sample
}

// appendExposition renders the full /metrics payload into buf.
func appendExposition(buf []byte, scrapes uint64, runs []runExpo) []byte {
	buf = append(buf, expoHeader...)
	buf = append(buf, "vsched_obs_scrapes_total "...)
	buf = strconv.AppendUint(buf, scrapes, 10)
	buf = append(buf, '\n')
	buf = append(buf, expoFamilies...)
	for _, r := range runs {
		buf = append(buf, "vsched_obs_events_published_total{run=\""...)
		buf = appendEscaped(buf, r.id)
		buf = append(buf, "\"} "...)
		buf = strconv.AppendUint(buf, r.published, 10)
		buf = append(buf, '\n')
		for _, sm := range r.samples {
			buf = appendSample(buf, r.id, sm)
		}
	}
	return buf
}

// appendSample renders one `vsched_metric{run="...",name="..."} value` line.
func appendSample(buf []byte, runID string, sm progress.Sample) []byte {
	buf = append(buf, "vsched_metric{run=\""...)
	buf = appendEscaped(buf, runID)
	buf = append(buf, "\",name=\""...)
	buf = appendEscaped(buf, sm.Name)
	buf = append(buf, "\"} "...)
	buf = appendFloat(buf, sm.Value)
	buf = append(buf, '\n')
	return buf
}

// appendFloat renders v the way Prometheus expects: shortest 'g' form, with
// NaN/+Inf/-Inf spelled exactly so (strconv already emits those).
func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendEscaped appends s as a Prometheus label value: backslash, double
// quote, and newline are escaped; all other bytes (including arbitrary
// UTF-8) pass through.
func appendEscaped(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}
