package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenArgs is a small fixed-seed scenario; everything on stdout must be a
// pure function of these flags.
var goldenArgs = []string{
	"-workload", "nginx", "-vcpus", "2", "-share", "0.5", "-vsched",
	"-duration", "2s", "-warmup", "1s", "-seed", "7", "-metrics",
}

// TestMetricsGolden pins the -metrics output (and the whole stdout report)
// for a fixed scenario. Wall-clock noise goes to stderr, so this is an exact
// byte comparison. Regenerate with: go test ./cmd/vschedsim -run Golden -update
func TestMetricsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(goldenArgs, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if d := firstDiff(stdout.Bytes(), want); d != "" {
		t.Fatalf("stdout diverged from %s: %s", golden, d)
	}
	if !strings.Contains(stdout.String(), "guest.context_switches") {
		t.Fatal("metrics snapshot missing guest counters")
	}
	if !strings.Contains(stdout.String(), "vsched.bvs.calls") {
		t.Fatal("metrics snapshot missing vsched counters")
	}
}

// TestTimelineGolden pins the -timeline strips (and the rest of stdout) for
// the golden scenario: the final 80 ms of each vCPU's host-level state and
// its running share. Regenerate with: go test ./cmd/vschedsim -run Golden -update
func TestTimelineGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-timeline")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if d := firstDiff(stdout.Bytes(), want); d != "" {
		t.Fatalf("stdout diverged from %s: %s", golden, d)
	}
	if !strings.Contains(stdout.String(), "vCPU activity, final 80ms:") {
		t.Fatal("no timeline strips on stdout")
	}
}

// traceGoldenArgs is a shorter fixed-seed scenario for the engine-swap trace
// golden: long enough to exercise throttling, probing, and bvs decisions,
// short enough to keep the recorded trace under 100KB.
var traceGoldenArgs = []string{
	"-workload", "nginx", "-vcpus", "2", "-share", "0.5", "-vsched",
	"-duration", "500ms", "-warmup", "200ms", "-seed", "7",
}

// TestTraceGolden pins the full Perfetto export of a fixed scenario to a
// golden recorded with the original container/heap event queue. The trace is
// a transcript of every simulation event in fire order, so this is the
// strictest engine-swap gate: a timing-wheel engine that reorders even two
// same-timestamp events diverges here. Do not re-record in an engine PR;
// regenerate (with -update) only when simulation semantics change on
// purpose.
func TestTraceGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	args := append([]string{"-trace", path}, traceGoldenArgs...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if d := firstDiff(got, want); d != "" {
		t.Fatalf("trace export diverged from %s (%d vs %d bytes): %s", golden, len(got), len(want), d)
	}
}

// firstDiff names the first line where got and want differ and quotes both,
// or returns "" when they are equal.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			line := func(ls []string) string {
				if i < len(ls) {
					return fmt.Sprintf("%q", ls[i])
				}
				return "(end of output)"
			}
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, line(g), line(w))
		}
	}
}

// TestTraceFileDeterministic runs the same traced scenario twice and requires
// byte-identical Chrome JSON — the CLI-level version of the exporter's
// determinism contract.
func TestTraceFileDeterministic(t *testing.T) {
	dir := t.TempDir()
	capture := func(name string) []byte {
		path := filepath.Join(dir, name)
		args := append([]string{"-trace", path}, goldenArgs...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run exited %d: %s", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "vtrace:") {
			t.Fatalf("no trace summary on stderr:\n%s", stderr.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := capture("a.json"), capture("b.json")
	if len(a) == 0 {
		t.Fatal("empty trace file")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("trace files differ across identical runs")
	}
	for _, want := range []string{`"cat":"host"`, `"cat":"guest"`, `"cat":"vsched"`, `"displayTimeUnit":"ms"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

// TestAttribFlag runs the golden scenario with -attrib: stdout gains a
// deterministic per-cause breakdown whose shares come from a conserved
// reconstruction (the run exits non-zero otherwise), and -trace grows an
// "attribution" process with per-cause span args.
func TestAttribFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "attrib.json")
	args := append([]string{"-attrib", "-trace", path}, goldenArgs...)
	capture := func() string {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run exited %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	a := capture()
	if a != capture() {
		t.Fatal("-attrib output diverged across identical runs")
	}
	for _, want := range []string{"latprof vm:", "steal-wait", "run", "p95 ms"} {
		if !strings.Contains(a, want) {
			t.Fatalf("attribution report missing %q:\n%s", want, a)
		}
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"attribution"`, `"steal_wait_ns"`, `"wall_ns"`} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Fatalf("trace missing attribution track marker %s", want)
		}
	}
	// The recorded event stream must be unchanged by the tap: strip the
	// attribution process and the remainder equals a -attrib-free trace.
	plain := filepath.Join(dir, "plain.json")
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-trace", plain}, goldenArgs...), &stdout, &stderr); code != 0 {
		t.Fatalf("plain traced run exited %d: %s", code, stderr.String())
	}
	plainTrace, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(trace, plainTrace[:bytes.LastIndex(plainTrace, []byte("\n],"))]) {
		t.Fatal("-attrib altered the recorded event stream (want: pure append of the attribution track)")
	}
}

// TestUnknownFlagFails checks flag errors exit non-zero without touching
// stdout.
func TestUnknownFlagFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown flag accepted")
	}
	if stdout.Len() != 0 {
		t.Fatalf("error path wrote to stdout: %s", stdout.String())
	}
}

// TestBadInputFails: a configuration error exits 1 with a one-line
// diagnostic naming the bad value, and never panics or touches stdout.
func TestBadInputFails(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"-share", "0"}, "bad -share 0"},
		{[]string{"-share", "1.5"}, "bad -share 1.5"},
		{[]string{"-vcpus", "0"}, "bad -vcpus 0"},
		{[]string{"-vcpus", "8", "-cores", "4"}, "bad -vcpus 8"},
		{[]string{"-sockets", "-1"}, "bad -sockets -1"},
		{[]string{"-cores", "-2"}, "bad -cores -2"},
		{[]string{"-duration", "0"}, "bad -duration 0s"},
		{[]string{"-duration", "-1s"}, "bad -duration -1s"},
		{[]string{"-warmup", "-1s"}, "bad -warmup -1s"},
		{[]string{"-latency", "-5ms"}, "bad -latency -5ms"},
		{[]string{"-stall", "-1s"}, "bad -stall -1s"},
		{[]string{"-stallat", "-1s"}, "bad -stallat -1s"},
		{[]string{"-stall", "1ms", "-stallat", "1ms"}, "bad -stallat 1ms"},
		{[]string{"-stallat", "300us"}, "bad -stallat 300µs"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		// The case's flags come last, so they override the short defaults.
		args := append([]string{"-duration", "1ms", "-warmup", "0s"}, c.args...)
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v exited %d, want 1 (stderr: %s)", c.args, code, stderr.String())
			continue
		}
		if msg := stderr.String(); !strings.Contains(msg, c.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line containing %q", c.args, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestTelemetryFlag: -telemetry must print a deterministic sparkline summary
// on stdout (byte-identical across reruns), keep wall-clock series off
// stdout, and add counter tracks to the -trace file without breaking it.
func TestTelemetryFlag(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	// The wall-clock source emits only once WallSource's minimum wall delta
	// (5 ms) has passed since its first sample, so the run must last well
	// past that on a fast machine: a 3 s scenario could finish in under 5 ms.
	args := []string{
		"-workload", "nginx", "-vcpus", "2", "-share", "0.5", "-vsched",
		"-duration", "10s", "-warmup", "1s", "-seed", "7",
		"-telemetry", "-trace", trace,
	}
	var out1, out2, errb bytes.Buffer
	if code := run(args, &out1, &errb); code != 0 {
		t.Fatalf("run exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out1.String(), "telemetry:") {
		t.Fatalf("no telemetry summary on stdout:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "sched.ctxsw") && !strings.Contains(out1.String(), "sim.fired") {
		t.Fatalf("expected sampled series in summary:\n%s", out1.String())
	}
	if strings.Contains(out1.String(), "self.events_per_sec") {
		t.Fatal("volatile wall-clock series leaked onto stdout")
	}
	if !strings.Contains(errb.String(), "self.events_per_sec") {
		t.Fatal("volatile series summary missing from stderr")
	}

	errb.Reset()
	if code := run(args, &out2, &errb); code != 0 {
		t.Fatalf("rerun exited %d: %s", code, errb.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("-telemetry stdout is not deterministic across reruns")
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace with counter tracks is not valid JSON: %v", err)
	}
	counters := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Fatal("trace has no counter events despite -telemetry")
	}
}

// TestStallFlag: an injected host stall must cost throughput but not wedge
// the run — the vCPUs wake after the window and the scenario completes.
func TestStallFlag(t *testing.T) {
	base := []string{"-workload", "nginx", "-vcpus", "2",
		"-duration", "2s", "-warmup", "500ms", "-seed", "7"}
	runOps := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		if code := run(append(append([]string{}, base...), extra...), &stdout, &stderr); code != 0 {
			t.Fatalf("run exited %d: %s", code, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "ops=") {
				return line
			}
		}
		t.Fatalf("no ops line in output:\n%s", stdout.String())
		return ""
	}
	clean := runOps()
	stalled := runOps("-stall", "1s")
	if clean == stalled {
		t.Fatalf("stall did not change throughput: %s", stalled)
	}
	var cleanOps, stalledOps int
	fmt.Sscanf(clean, "ops=%d", &cleanOps)
	fmt.Sscanf(stalled, "ops=%d", &stalledOps)
	if stalledOps <= 0 || stalledOps >= cleanOps {
		t.Fatalf("stalled ops %d, want in (0, %d)", stalledOps, cleanOps)
	}
	if again := runOps("-stall", "1s"); again != stalled {
		t.Fatalf("stalled run not deterministic: %q vs %q", again, stalled)
	}
}

// TestServeStdoutInert runs the golden scenario with -serve on an ephemeral
// port and requires stdout to match the plain run byte for byte: the ops
// plane publishes at run-loop safepoints and schedules nothing on the
// engine, so even the engine self-census telemetry is unchanged.
func TestServeStdoutInert(t *testing.T) {
	plainTelem := append(append([]string{}, goldenArgs...), "-telemetry")
	var plain2, plainErr bytes.Buffer
	if code := run(plainTelem, &plain2, &plainErr); code != 0 {
		t.Fatalf("plain telemetry run exited %d: %s", code, plainErr.String())
	}
	served := append(append([]string{}, plainTelem...), "-serve", "127.0.0.1:0")
	var obs, obsErr bytes.Buffer
	if code := run(served, &obs, &obsErr); code != 0 {
		t.Fatalf("served run exited %d: %s", code, obsErr.String())
	}
	if !bytes.Equal(plain2.Bytes(), obs.Bytes()) {
		t.Fatalf("-serve changed stdout:\n--- plain ---\n%s\n--- served ---\n%s",
			plain2.String(), obs.String())
	}
	if !strings.Contains(obsErr.String(), "observability: http://") {
		t.Fatalf("bound address missing from stderr: %s", obsErr.String())
	}
}

// TestServeStreamsRun consumes a served scenario's progress stream over
// TCP. Stderr is a pipe, so the run blocks on its first write after the
// announcement until the stream is attached: the stream must carry the
// whole run, run_start, one epoch per virtual second, run_done, then a
// stream_end that accounts for every event.
func TestServeStreamsRun(t *testing.T) {
	pr, pw := io.Pipe()
	var stdout bytes.Buffer
	exited := make(chan int, 1)
	go func() {
		exited <- run(append(append([]string{}, goldenArgs...), "-serve", "127.0.0.1:0"), &stdout, pw)
		pw.Close()
	}()
	stderr := bufio.NewReader(pr)
	line, err := stderr.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	rest, ok := strings.CutPrefix(line, "observability: http://")
	addr, _, _ := strings.Cut(rest, "/")
	if !ok {
		t.Fatalf("first stderr line %q is not the announcement", line)
	}
	resp, err := http.Get("http://" + addr + "/runs/vschedsim/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go io.Copy(io.Discard, stderr)

	type record struct {
		Kind     string `json:"kind"`
		Epoch    int64  `json:"epoch"`
		At       int64  `json:"at_ns"`
		Received uint64 `json:"received"`
		Dropped  uint64 `json:"dropped"`
	}
	var recs []record
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if code := <-exited; code != 0 {
		t.Fatalf("served run exited %d", code)
	}
	// The 1s warmup and 2s window advance in three one-second chunks.
	const n = 3
	if len(recs) != n+3 || recs[0].Kind != "run_start" {
		t.Fatalf("stream = %+v, want run_start, %d epochs, run_done, stream_end", recs, n)
	}
	for i, r := range recs[1 : n+1] {
		if r.Kind != "epoch" || r.Epoch != int64(i+1) || r.At <= recs[i].At {
			t.Fatalf("record %d = %+v after %+v, want epoch %d later in virtual time", i+1, r, recs[i], i+1)
		}
	}
	if done := recs[n+1]; done.Kind != "run_done" || done.Epoch != n {
		t.Fatalf("record %d = %+v, want run_done at epoch %d", n+1, done, n)
	}
	if end := recs[n+2]; end.Kind != "stream_end" || end.Received != n+2 || end.Dropped != 0 {
		t.Fatalf("stream_end = %+v, want %d received and 0 dropped", end, n+2)
	}
}

// TestWatchStdoutInert runs the golden scenario with -telemetry, with and
// without -watch. The watch tables print at the run loop's per-second
// safepoints, before the report, and schedule nothing on the engine: once
// they are cut off, stdout matches the plain run byte for byte, engine
// self-census included.
func TestWatchStdoutInert(t *testing.T) {
	plainArgs := append(append([]string{}, goldenArgs...), "-telemetry")
	var plain, plainErr bytes.Buffer
	if code := run(plainArgs, &plain, &plainErr); code != 0 {
		t.Fatalf("plain telemetry run exited %d: %s", code, plainErr.String())
	}
	var watched, watchedErr bytes.Buffer
	if code := run(append(plainArgs, "-watch"), &watched, &watchedErr); code != 0 {
		t.Fatalf("watched run exited %d: %s", code, watchedErr.String())
	}
	tables, rest, ok := bytes.Cut(watched.Bytes(), []byte("workload="))
	if !ok || !bytes.Equal(append([]byte("workload="), rest...), plain.Bytes()) {
		t.Fatalf("-watch changed the report:\n--- plain ---\n%s\n--- watched ---\n%s",
			plain.String(), watched.String())
	}
	// One table per virtual second of the 1s warmup plus 2s window.
	if n := bytes.Count(tables, []byte("--- t=")); n != 3 || !bytes.HasPrefix(tables, []byte("--- t=1.000000s ---\n")) {
		t.Fatalf("want 3 watch tables from t=1s, got %d:\n%s", n, tables)
	}
}
