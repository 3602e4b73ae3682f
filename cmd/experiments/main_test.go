package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsched/internal/experiments"
)

// TestListPrintsEveryExperiment pins the catalog contract: -list names
// every registered experiment with its one-line description and exits 0.
func TestListPrintsEveryExperiment(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	if !strings.HasPrefix(text, "available experiments:") {
		t.Fatalf("unexpected -list header:\n%s", text)
	}
	reg := experiments.Registry()
	for _, r := range reg {
		line := false
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), r.ID+" ") && strings.Contains(l, r.Title) {
				line = true
				break
			}
		}
		if !line {
			t.Errorf("-list output missing %q (%s)", r.ID, r.Title)
		}
	}
	// One line per experiment plus the header: nothing unregistered sneaks in.
	n := 0
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "  ") {
			n++
		}
	}
	if n != len(reg) {
		t.Fatalf("-list printed %d entries, registry has %d", n, len(reg))
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "nonsense"}, &out, &errb); code != 1 {
		t.Fatalf("unknown id exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("missing diagnostic, stderr: %s", errb.String())
	}
}

// TestBadInputFails: a bad numeric flag, or an experiment id listed twice,
// exits 1 with a one-line diagnostic and runs nothing.
func TestBadInputFails(t *testing.T) {
	for _, bad := range [][2]string{
		{"scale", "NaN"}, {"scale", "0"}, {"scale", "-1"}, {"scale", "+Inf"},
		{"reps", "0"}, {"reps", "-2"},
		{"timeout", "-1s"},
		{"run", "fig3,fig3"}, {"run", "fig3, fig11,fig3"},
	} {
		flag, val := bad[0], bad[1]
		var out, errb strings.Builder
		if code := run([]string{"-run", "fig3", "-" + flag, val}, &out, &errb); code != 1 {
			t.Errorf("-%s %s exited %d, want 1", flag, val, code)
			continue
		}
		if msg := errb.String(); !strings.Contains(msg, "bad -"+flag) || strings.Count(msg, "\n") != 1 {
			t.Errorf("-%s %s: stderr %q, want one line naming -%s", flag, val, msg, flag)
		}
		if out.Len() != 0 {
			t.Errorf("-%s %s wrote to stdout: %s", flag, val, out.String())
		}
	}
}

// TestUnknownFlagFails also covers the retired flags: timing lives in the Go
// benchmarks and vbench, trials share the GOMAXPROCS budget with their cells,
// a deterministic trial is never retried, and every report is in the -out
// artifact's trial records, so -bench, -parallel, -retries and -json are
// usage errors like any other.
func TestUnknownFlagFails(t *testing.T) {
	for _, args := range [][]string{{"-definitely-not-a-flag"}, {"-bench", "core"}, {"-parallel", "2"}, {"-retries", "1"}, {"-json"}} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v exited %d, want 2", args, code)
		}
	}
}

// TestProfilingFlags runs a tiny experiment with -cpuprofile/-memprofile and
// checks both pprof files land on disk non-empty without perturbing stdout
// (the report must stay byte-identical to an unprofiled run).
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	base := []string{"-run", "fig3", "-scale", "0.05", "-seed", "3"}

	var plain, errb strings.Builder
	if code := run(base, &plain, &errb); code != 0 {
		t.Fatalf("baseline run exited %d: %s", code, errb.String())
	}
	var profiled strings.Builder
	errb.Reset()
	args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, base...)
	if code := run(args, &profiled, &errb); code != 0 {
		t.Fatalf("profiled run exited %d: %s", code, errb.String())
	}
	if plain.String() != profiled.String() {
		t.Fatal("profiling flags changed the report output")
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}

	errb.Reset()
	var out strings.Builder
	bad := append([]string{"-cpuprofile", filepath.Join(dir, "no", "dir", "x")}, base...)
	if code := run(bad, &out, &errb); code != 1 {
		t.Fatalf("unwritable -cpuprofile exited %d, want 1", code)
	}
}

// TestServeAndProgressInert runs the same cheap experiment with and without
// the live ops plane (-serve on an ephemeral port, -progress heartbeat) and
// requires byte-identical stdout: observation may add stderr diagnostics but
// must never move a report byte.
func TestServeAndProgressInert(t *testing.T) {
	args := []string{"-run", "table2", "-scale", "0.2", "-seed", "11"}
	var plain, plainErr strings.Builder
	if code := run(args, &plain, &plainErr); code != 0 {
		t.Fatalf("plain run exited %d: %s", code, plainErr.String())
	}
	var obs, obsErr strings.Builder
	if code := run(append(args, "-serve", "127.0.0.1:0", "-progress"), &obs, &obsErr); code != 0 {
		t.Fatalf("observed run exited %d: %s", code, obsErr.String())
	}
	if plain.String() != obs.String() {
		t.Fatalf("-serve/-progress changed stdout:\n--- plain ---\n%s\n--- observed ---\n%s",
			plain.String(), obs.String())
	}
	if !strings.Contains(obsErr.String(), "observability: http://") {
		t.Fatalf("bound address missing from stderr: %s", obsErr.String())
	}
	if !strings.Contains(obsErr.String(), "harness: 1/1 trials") {
		t.Fatalf("final heartbeat missing from stderr: %s", obsErr.String())
	}
}

// TestHeartbeat: -progress reads the harness's progress bus and writes
// plain-text "harness: " lines to stderr, ending with the final tally, and
// without -progress no heartbeat line appears.
func TestHeartbeat(t *testing.T) {
	args := []string{"-run", "fig3", "-scale", "0.05", "-reps", "2"}
	var out, errb strings.Builder
	if code := run(append(args, "-progress"), &out, &errb); code != 0 {
		t.Fatalf("-progress run exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(errb.String()), "\n")
	beats, summary := lines[:len(lines)-1], lines[len(lines)-1]
	if !strings.HasPrefix(summary, "(2 trials over ") {
		t.Fatalf("run summary must close stderr, got %q", summary)
	}
	if len(beats) == 0 || !strings.HasPrefix(beats[len(beats)-1], "harness: 2/2 trials") {
		t.Fatalf("final heartbeat missing:\n%s", errb.String())
	}
	for _, line := range beats {
		if !strings.HasPrefix(line, "harness: ") || strings.ContainsAny(line, "{}") {
			t.Fatalf("heartbeat line %q is not a plain-text harness line", line)
		}
	}

	errb.Reset()
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("plain run exited %d: %s", code, errb.String())
	}
	if strings.Contains(errb.String(), "harness: ") {
		t.Fatalf("heartbeat without -progress:\n%s", errb.String())
	}
}

// TestServeBadAddrFails: an unbindable -serve address is a startup error,
// not a silent no-op.
func TestServeBadAddrFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "table2", "-serve", "256.256.256.256:1"}, &out, &errb); code != 1 {
		t.Fatalf("bad -serve addr exited %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// TestBadOutFailsBeforeRun: an -out path that cannot be created is a startup
// error. The command exits 1 before any trial runs, so stderr holds the
// create error and no "(N trials ...)" summary line.
func TestBadOutFailsBeforeRun(t *testing.T) {
	var out, errb strings.Builder
	bad := filepath.Join(t.TempDir(), "missing", "x.jsonl")
	if code := run([]string{"-run", "table2", "-out", bad}, &out, &errb); code != 1 {
		t.Fatalf("bad -out exited %d, want 1 (stderr: %s)", code, errb.String())
	}
	if strings.Contains(errb.String(), "trials over") || out.Len() != 0 {
		t.Fatalf("bad -out ran the trials first:\nstdout: %s\nstderr: %s", out.String(), errb.String())
	}
}
