package vtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vsched/internal/sim"
)

// tracedRun builds a tracer with a few buffered events so exports have
// event-derived content alongside the extra tracks.
func tracedRun() *Tracer {
	tr := New(64)
	tr.Emit(1000, KindCapSample, "vm0", 0, 900, 512)
	tr.Emit(2000, KindVMArrive, "vm1", 4, 0, 0)
	tr.Emit(3000, KindCapSample, "vm0", 1, 950, 600)
	return tr
}

func TestCounterTrackExport(t *testing.T) {
	tr := tracedRun()
	counters := []CounterTrack{{
		Process: "telemetry",
		Series: []CounterSeries{
			{Name: "fleet.steal", Points: []CounterPoint{{At: 1000, Value: 0.25}, {At: 2000, Value: 0.5}}},
			{Name: "fleet.util", Points: []CounterPoint{{At: 1500, Value: 12}}},
		},
	}}
	var b bytes.Buffer
	if err := tr.WriteChrome(&b, nil, counters); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if !strings.Contains(out, `"name":"fleet.steal"`) || !strings.Contains(out, `"value":0.25`) {
		t.Fatalf("counter points missing from export:\n%s", out)
	}
	// The counter process takes the first pid after the built-in four.
	if !strings.Contains(out, `{"ph":"M","pid":5,"name":"process_name","args":{"name":"telemetry"}}`) {
		t.Fatalf("counter process metadata missing:\n%s", out)
	}
	// Counter events share the exact "C" formatting the event path uses.
	if !strings.Contains(out, `{"ph":"C","pid":5,"ts":1.000,"name":"fleet.steal","args":{"value":0.25}}`) {
		t.Fatalf("counter event formatting off:\n%s", out)
	}
}

// TestCounterTrackHostileNames feeds adversarial series and process names —
// quotes, backslashes, control bytes, invalid UTF-8, HTML — and requires the
// export to stay parseable JSON with the names intact (modulo the UTF-8
// replacement the JSON encoder performs).
func TestCounterTrackHostileNames(t *testing.T) {
	hostile := []string{
		`quote"inside`,
		`back\slash`,
		"tab\tand\nnewline",
		"ctrl\x00\x01\x1f",
		"<script>&amp;</script>",
		"invalid\xffutf8",
		"uni sep ",
	}
	counters := []CounterTrack{{Process: hostile[0]}}
	for i, name := range hostile {
		counters[0].Series = append(counters[0].Series, CounterSeries{
			Name:   name,
			Points: []CounterPoint{{At: sim.Time(i * 1000), Value: float64(i)}},
		})
	}
	var b bytes.Buffer
	if err := New(4).WriteChrome(&b, nil, counters); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("hostile names broke the JSON: %v\n%s", err, b.String())
	}
	found := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "C" {
			found++
			name, _ := ev["name"].(string)
			if name == "" {
				t.Fatalf("counter event lost its name: %v", ev)
			}
		}
	}
	if found != len(hostile) {
		t.Fatalf("%d counter events survived, want %d", found, len(hostile))
	}
}

// TestCounterTrackNonFiniteValues: NaN/Inf have no JSON literal, so they
// must degrade to 0 rather than corrupt the document.
func TestCounterTrackNonFiniteValues(t *testing.T) {
	counters := []CounterTrack{{
		Process: "t",
		Series: []CounterSeries{{Name: "s", Points: []CounterPoint{
			{At: 0, Value: math.NaN()},
			{At: 1, Value: math.Inf(1)},
			{At: 2, Value: math.Inf(-1)},
			{At: 3, Value: 1.5},
		}}},
	}}
	var b bytes.Buffer
	if err := New(4).WriteChrome(&b, nil, counters); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("non-finite values broke the JSON: %v\n%s", err, b.String())
	}
}
