package main

import (
	"encoding/json"
	"io"
	"time"
)

// tracer records spans from the benchmark's own code around each call into a
// layer. Spans stay in memory and are written as Chrome/Perfetto JSON at
// exit. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	// self is the wall time spent inside the tracer's own methods, the
	// numerator of bench.trace_overhead_frac.
	self time.Duration
}

// span is one timed call. Parent 0 is the root (no parent).
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since epoch
	args       map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: t0.Sub(t.epoch)})
	t.self += time.Since(t0)
	return len(t.spans)
}

// end closes span id with args (event, malloc and byte counts).
func (t *tracer) end(id int, args map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t0 := time.Now()
	s := &t.spans[id-1]
	s.end = t0.Sub(t.epoch)
	s.args = args
	t.self += time.Since(t0)
}

// sampleArgs renders an op sample as span args.
func sampleArgs(s sample, events uint64) map[string]float64 {
	return map[string]float64{
		"events":  float64(events),
		"mallocs": s.allocs,
		"bytes":   s.allocBytes,
		"cpu_s":   s.cpu,
	}
}

// chromeEvent is one Chrome trace "complete" event (times in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome writes every span as a Chrome/Perfetto JSON trace. Each event's
// args carry its span id, parent id and workload besides the recorded counts.
func (t *tracer) writeChrome(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(t.spans))}
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "workload": t.workload}
		for k, v := range s.args {
			args[k] = v
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.name,
			Ph:   "X",
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID:  1,
			TID:  1,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(out)
}
