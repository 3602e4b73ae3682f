package vtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// Chrome Trace Event Format export (the JSON object format with a
// traceEvents array), loadable in Perfetto and chrome://tracing.
//
// Layout: three trace processes, one per simulation layer.
//
//	pid 1 "host"   — one track per entity; complete ("X") slices for
//	                 running/runnable/throttled intervals, instants for
//	                 preemptions and throttle edges.
//	pid 2 "guest"  — one track per vCPU index; "X" slices span task
//	                 install->uninstall (slice name = task name), instants
//	                 for wakeups, migrations, balance passes, policy moves.
//	pid 3 "vsched" — counter ("C") tracks for probed capacity and latency
//	                 per vCPU, instants for bvs/ivh/vtop decisions.
//
// The writer emits events in deterministic order (buffer order, with
// interval slices at their close edge), so the same run produces
// byte-identical files. Timestamps are virtual nanoseconds rendered as
// microseconds with three decimals.
//
// Track keying note: guest tracks are keyed by vCPU index, so a trace of
// several VMs overlays their guest activity; host tracks are keyed by
// entity name and never collide.

const (
	pidHost   = 1
	pidGuest  = 2
	pidVSched = 3
	pidFleet  = 4
	// pidExtra is the first pid handed to caller-supplied SpanTracks.
	pidExtra = 5
	// Synthetic guest tids for VM-wide instants.
	tidBalance = 1000
)

// SpanTrack is a caller-supplied trace process appended to a Chrome export:
// a dedicated set of tracks whose slices were derived from the event stream
// rather than recorded in it (e.g. latency-attribution spans). Args are an
// ordered slice, not a map, so exports stay byte-deterministic.
type SpanTrack struct {
	Process string
	Threads []SpanThread
}

// SpanThread is one named track inside a SpanTrack.
type SpanThread struct {
	Name   string
	Slices []SpanSlice
}

// SpanSlice is one complete ("X") slice on a SpanThread.
type SpanSlice struct {
	Name     string
	From, To sim.Time
	Args     []SpanArg
}

// SpanArg is one key/value argument attached to a SpanSlice.
type SpanArg struct {
	Key   string
	Value int64
}

// CounterTrack is a caller-supplied counter process appended to a Chrome
// export: Perfetto "C" (counter) events derived from data outside the event
// ring — telemetry series samples, profiler aggregates — sharing the exact
// formatting the event-derived counter tracks use. Points are emitted in
// caller order, so exports stay byte-deterministic.
type CounterTrack struct {
	Process string
	Series  []CounterSeries
}

// CounterSeries is one named counter inside a CounterTrack.
type CounterSeries struct {
	Name   string
	Points []CounterPoint
}

// CounterPoint is one sample on a CounterSeries.
type CounterPoint struct {
	At    sim.Time
	Value float64
}

// exporter accumulates interval state while streaming JSON lines.
type exporter struct {
	w    *bufio.Writer
	tr   *Tracer
	err  error
	n    int // events written, for comma placement
	last sim.Time

	// host entity tracks: name -> tid, plus open state interval.
	entTID   map[string]int
	entOrder []string
	entState map[string]host.EntityState
	entSince map[string]sim.Time

	// guest vCPU tracks: open task slice per vCPU index.
	guestTIDs map[int]bool
	openTask  map[int]openSlice
	vcpuOrder []int
}

type openSlice struct {
	name  string
	since sim.Time
}

// WriteChrome exports the buffered events as Chrome Trace Event Format
// JSON. Safe on a nil tracer (writes an empty trace). Span tracks — derived
// data such as attribution spans — are appended as additional slice
// processes after the event-derived ones, counter tracks as Perfetto counter
// processes after them, and the trailer records the tracer's emitted/dropped
// totals so a consumer can tell whether ring wrap-around lost events.
func (tr *Tracer) WriteChrome(w io.Writer, spans []SpanTrack, counters []CounterTrack) error {
	e := &exporter{
		w:         bufio.NewWriter(w),
		tr:        tr,
		entTID:    map[string]int{},
		entState:  map[string]host.EntityState{},
		entSince:  map[string]sim.Time{},
		guestTIDs: map[int]bool{},
		openTask:  map[int]openSlice{},
	}
	return e.run(spans, counters)
}

func (e *exporter) run(extra []SpanTrack, counters []CounterTrack) error {
	io.WriteString(e.w, "{\"traceEvents\":[\n")
	e.meta(pidHost, -1, "process_name", "host")
	e.meta(pidGuest, -1, "process_name", "guest")
	e.meta(pidVSched, -1, "process_name", "vsched")
	e.meta(pidFleet, -1, "process_name", "fleet")
	e.meta(pidGuest, tidBalance, "thread_name", "balancer")

	events := e.tr.Events()
	for i := range events {
		e.event(&events[i])
		if e.err != nil {
			return e.err
		}
	}
	e.flushOpen()
	for i := range extra {
		e.spanTrack(pidExtra+i, &extra[i])
		if e.err != nil {
			return e.err
		}
	}
	for i := range counters {
		e.counterTrack(pidExtra+len(extra)+i, &counters[i])
		if e.err != nil {
			return e.err
		}
	}
	fmt.Fprintf(e.w, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"emittedEvents\":%d,\"droppedEvents\":%d}}\n",
		e.tr.Total(), e.tr.Dropped())
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// spanTrack emits one caller-supplied process: its metadata, then every
// slice in caller order (deterministic by construction).
func (e *exporter) spanTrack(pid int, t *SpanTrack) {
	e.meta(pid, -1, "process_name", t.Process)
	for tid := range t.Threads {
		th := &t.Threads[tid]
		e.meta(pid, tid, "thread_name", th.Name)
		for i := range th.Slices {
			s := &th.Slices[i]
			var args strings.Builder
			for j, a := range s.Args {
				if j > 0 {
					args.WriteByte(',')
				}
				fmt.Fprintf(&args, "%q:%d", a.Key, a.Value)
			}
			e.sliceArgs(pid, tid, s.From, s.To, s.Name, t.Process, args.String())
		}
	}
}

// ts renders virtual nanoseconds as trace microseconds.
func ts(t sim.Time) string { return fmt.Sprintf("%d.%03d", int64(t)/1000, int64(t)%1000) }

func (e *exporter) raw(line string) {
	if e.err != nil {
		return
	}
	if e.n > 0 {
		io.WriteString(e.w, ",\n")
	}
	if _, err := io.WriteString(e.w, line); err != nil {
		e.err = err
	}
	e.n++
}

func (e *exporter) meta(pid, tid int, key, name string) {
	t := ""
	if tid >= 0 {
		t = fmt.Sprintf(",\"tid\":%d", tid)
	}
	e.raw(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d%s,\"name\":%q,\"args\":{\"name\":%q}}", pid, t, key, name))
}

func (e *exporter) instant(pid, tid int, at sim.Time, name, cat, args string) {
	a := ""
	if args != "" {
		a = ",\"args\":{" + args + "}"
	}
	e.raw(fmt.Sprintf("{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"name\":%q,\"cat\":%q,\"s\":\"t\"%s}",
		pid, tid, ts(at), name, cat, a))
}

func (e *exporter) slice(pid, tid int, from, to sim.Time, name, cat string) {
	if to < from {
		to = from
	}
	e.raw(fmt.Sprintf("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%q,\"cat\":%q}",
		pid, tid, ts(from), ts(sim.Time(to.Sub(from))), name, cat))
}

func (e *exporter) sliceArgs(pid, tid int, from, to sim.Time, name, cat, args string) {
	if args == "" {
		e.slice(pid, tid, from, to, name, cat)
		return
	}
	if to < from {
		to = from
	}
	e.raw(fmt.Sprintf("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%q,\"cat\":%q,\"args\":{%s}}",
		pid, tid, ts(from), ts(sim.Time(to.Sub(from))), name, cat, args))
}

// counterRaw is the one place a "C" event is formatted; name and value must
// be pre-rendered JSON (a string literal and a number). Event-derived and
// caller-supplied counter tracks both funnel through it.
func (e *exporter) counterRaw(pid int, at sim.Time, name, value string) {
	e.raw(fmt.Sprintf("{\"ph\":\"C\",\"pid\":%d,\"ts\":%s,\"name\":%s,\"args\":{\"value\":%s}}",
		pid, ts(at), name, value))
}

func (e *exporter) counter(at sim.Time, name string, value int64) {
	e.counterRaw(pidVSched, at, strconv.Quote(name), strconv.FormatInt(value, 10))
}

// counterTrack emits one caller-supplied counter process: its metadata, then
// every series' points in caller order. Caller-supplied names are untrusted,
// so they go through the real JSON encoder (fmt's %q is Go syntax, which
// escapes control bytes as \x00 — invalid JSON).
func (e *exporter) counterTrack(pid int, t *CounterTrack) {
	e.raw(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
		pid, jsonString(t.Process)))
	for i := range t.Series {
		s := &t.Series[i]
		name := jsonString(s.Name)
		for _, p := range s.Points {
			e.counterRaw(pid, p.At, name, jsonFloat(p.Value))
		}
	}
}

// jsonString renders s as a JSON string literal, escaping anything hostile.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// jsonFloat renders v as a JSON number. The trace format has no NaN/Inf
// literals, so non-finite values degrade to 0.
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// hostTID returns (allocating on first sight) the track id for an entity.
func (e *exporter) hostTID(name string, at sim.Time) int {
	if tid, ok := e.entTID[name]; ok {
		return tid
	}
	tid := len(e.entTID)
	e.entTID[name] = tid
	e.entOrder = append(e.entOrder, name)
	e.entSince[name] = at
	e.meta(pidHost, tid, "thread_name", name)
	return tid
}

// guestTID returns the track id for a vCPU index, emitting its metadata on
// first sight.
func (e *exporter) guestTID(vcpu int) int {
	if !e.guestTIDs[vcpu] {
		e.guestTIDs[vcpu] = true
		e.vcpuOrder = append(e.vcpuOrder, vcpu)
		e.meta(pidGuest, vcpu, "thread_name", fmt.Sprintf("vcpu%d", vcpu))
	}
	return vcpu
}

func stateSliceName(s host.EntityState) string {
	switch s {
	case host.Running:
		return "running"
	case host.Runnable:
		return "runnable"
	case host.Throttled:
		return "throttled"
	}
	return ""
}

func (e *exporter) event(ev *Event) {
	if ev.At > e.last {
		e.last = ev.At
	}
	switch ev.Kind {
	case KindEntityState:
		tid := e.hostTID(ev.Subject, ev.At)
		from, to := host.EntityState(ev.A0), host.EntityState(ev.A1)
		// Close the open interval. An entity first seen mid-trace gets its
		// in-progress interval opened at its first appearance.
		if prev, ok := e.entState[ev.Subject]; !ok || prev == from {
			if name := stateSliceName(from); name != "" {
				e.slice(pidHost, tid, e.entSince[ev.Subject], ev.At, name, "host")
			}
		}
		e.entState[ev.Subject] = to
		e.entSince[ev.Subject] = ev.At
	case KindPreempt:
		e.instant(pidHost, e.hostTID(ev.Subject, ev.At), ev.At, "preempt", "host", "")
	case KindThrottle:
		e.instant(pidHost, e.hostTID(ev.Subject, ev.At), ev.At, "throttle", "host", "")
	case KindUnthrottle:
		e.instant(pidHost, e.hostTID(ev.Subject, ev.At), ev.At, "unthrottle", "host", "")
	case KindSteal:
		e.instant(pidHost, e.hostTID(ev.Subject, ev.At), ev.At, "steal-end", "host",
			fmt.Sprintf("\"steal_ns\":%d", ev.A0))

	case KindTaskOn:
		tid := e.guestTID(int(ev.A0))
		if open, ok := e.openTask[tid]; ok {
			// Ring wrap lost the matching TaskOff; close at the new edge.
			e.slice(pidGuest, tid, open.since, ev.At, open.name, "guest")
		}
		e.openTask[tid] = openSlice{name: ev.Subject, since: ev.At}
	case KindTaskOff:
		tid := e.guestTID(int(ev.A0))
		if open, ok := e.openTask[tid]; ok {
			e.slice(pidGuest, tid, open.since, ev.At, open.name, "guest")
			delete(e.openTask, tid)
		}
		// A TaskOff whose TaskOn was overwritten by the ring is dropped.
	case KindTaskWakeup:
		e.instant(pidGuest, e.guestTID(int(ev.A1)), ev.At, "wakeup:"+ev.Subject, "guest", "")
	case KindTaskMigrate:
		e.instant(pidGuest, e.guestTID(int(ev.A1)), ev.At, "migrate:"+ev.Subject, "guest",
			fmt.Sprintf("\"src\":%d,\"dst\":%d", ev.A1, ev.A2))
	case KindBalance:
		e.instant(pidGuest, tidBalance, ev.At, "balance", "guest",
			fmt.Sprintf("\"migrations\":%d", ev.A0))
	case KindIdlePolicy:
		name := "sched-idle:" + ev.Subject
		if ev.A1 == 0 {
			name = "sched-normal:" + ev.Subject
		}
		e.instant(pidGuest, tidBalance, ev.At, name, "guest", "")
	case KindVCPUSpeed:
		e.counter(ev.At, fmt.Sprintf("speed_milli/v%d", ev.A0), ev.A1/1000)
	case KindMigCost:
		e.instant(pidGuest, tidBalance, ev.At, "mig-cost:"+ev.Subject, "guest",
			fmt.Sprintf("\"cycles\":%d", ev.A1))

	case KindCapSample:
		e.counter(ev.At, fmt.Sprintf("capacity/v%d", ev.A0), ev.A1)
	case KindActSample:
		e.counter(ev.At, fmt.Sprintf("latency_us/v%d", ev.A0), ev.A1/1000)
	case KindBVSPlace:
		e.instant(pidVSched, 0, ev.At, "bvs:"+ev.Subject, "vsched",
			fmt.Sprintf("\"chosen\":%d,\"scanned\":%d,\"candidates\":%d", ev.A0, ev.A1, ev.A2))
	case KindIVH:
		name := "ivh-attempt"
		switch ev.A0 {
		case 1:
			name = "ivh-migrated"
		case 2:
			name = "ivh-abandoned"
		}
		e.instant(pidVSched, 1, ev.At, name, "vsched",
			fmt.Sprintf("\"src\":%d,\"dst\":%d", ev.A1, ev.A2))
	case KindVtop:
		name := "vtop-full-probe"
		if ev.A0 == 1 {
			name = "vtop-validate"
		}
		e.instant(pidVSched, 2, ev.At, name, "vsched",
			fmt.Sprintf("\"dur_ns\":%d,\"ok\":%d", ev.A1, ev.A2))

	case KindVMArrive:
		e.instant(pidFleet, 0, ev.At, "arrive:"+ev.Subject, "fleet",
			fmt.Sprintf("\"vcpus\":%d", ev.A0))
	case KindVMPlace:
		name := "place:" + ev.Subject
		if ev.A0 < 0 {
			name = "reject:" + ev.Subject
		}
		e.instant(pidFleet, 0, ev.At, name, "fleet",
			fmt.Sprintf("\"host\":%d,\"vcpus\":%d,\"committed\":%d", ev.A0, ev.A1, ev.A2))
	case KindVMMigrate:
		e.instant(pidFleet, 1, ev.At, "migrate:"+ev.Subject, "fleet",
			fmt.Sprintf("\"src\":%d,\"dst\":%d,\"vcpus\":%d", ev.A0, ev.A1, ev.A2))
	case KindVMExit:
		e.instant(pidFleet, 0, ev.At, "exit:"+ev.Subject, "fleet",
			fmt.Sprintf("\"host\":%d,\"vcpus\":%d", ev.A0, ev.A1))
	case KindHostFault:
		e.instant(pidFleet, 2, ev.At, "fault:"+ev.Subject, "fleet",
			fmt.Sprintf("\"kind\":%d,\"dur_ns\":%d,\"factor_ppm\":%d", ev.A0, ev.A1, ev.A2))
	case KindHostRecover:
		e.instant(pidFleet, 2, ev.At, "recover:"+ev.Subject, "fleet",
			fmt.Sprintf("\"kind\":%d", ev.A0))
	case KindVMCrash:
		e.instant(pidFleet, 2, ev.At, "crash:"+ev.Subject, "fleet",
			fmt.Sprintf("\"host\":%d,\"vcpus\":%d", ev.A0, ev.A1))
	case KindVMRestart:
		e.instant(pidFleet, 2, ev.At, "restart:"+ev.Subject, "fleet",
			fmt.Sprintf("\"host\":%d,\"attempt\":%d,\"down_ns\":%d", ev.A0, ev.A1, ev.A2))
	case KindVMLost:
		e.instant(pidFleet, 2, ev.At, "lost:"+ev.Subject, "fleet",
			fmt.Sprintf("\"reason\":%d,\"vcpus\":%d", ev.A0, ev.A1))
	}
}

// flushOpen closes intervals still open at the end of the trace, in
// first-appearance order for determinism.
func (e *exporter) flushOpen() {
	for _, name := range e.entOrder {
		if s := stateSliceName(e.entState[name]); s != "" {
			e.slice(pidHost, e.entTID[name], e.entSince[name], e.last, s, "host")
		}
	}
	for _, vcpu := range e.vcpuOrder {
		if open, ok := e.openTask[vcpu]; ok {
			e.slice(pidGuest, vcpu, open.since, e.last, open.name, "guest")
		}
	}
}

// Summary renders per-category event counts as a compact ASCII block.
func (tr *Tracer) Summary() string {
	if tr == nil {
		return "vtrace: disabled\n"
	}
	events := tr.Events()
	var counts [numKinds]uint64
	var first, last sim.Time
	for i, ev := range events {
		counts[ev.Kind]++
		if i == 0 {
			first = ev.At
		}
		if ev.At > last {
			last = ev.At
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "vtrace: %d events buffered (%d emitted, %d dropped), %v..%v\n",
		len(events), tr.Total(), tr.Dropped(), first, last)
	for _, cat := range []string{"host", "guest", "vsched", "fleet"} {
		var parts []string
		for k := Kind(0); k < numKinds; k++ {
			if k.Category() == cat && counts[k] > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", k, counts[k]))
			}
		}
		if len(parts) == 0 {
			parts = append(parts, "-")
		}
		fmt.Fprintf(&b, "  %-6s  %s\n", cat, strings.Join(parts, ", "))
	}
	return b.String()
}
