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

// TestBadInputFails: a bad numeric flag exits 1 with a one-line diagnostic
// and runs nothing.
func TestBadInputFails(t *testing.T) {
	for _, scale := range []string{"NaN", "0", "-1", "+Inf"} {
		var out, errb strings.Builder
		if code := run([]string{"-run", "fig3", "-scale", scale}, &out, &errb); code != 1 {
			t.Errorf("-scale %s exited %d, want 1", scale, code)
			continue
		}
		if msg := errb.String(); !strings.Contains(msg, "bad -scale") || strings.Count(msg, "\n") != 1 {
			t.Errorf("-scale %s: stderr %q, want one line naming -scale", scale, msg)
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s wrote to stdout: %s", scale, out.String())
		}
	}
}

// TestUnknownFlagFails also covers the retired benchmark flags: timing lives
// in the Go benchmarks and vbench, so -bench is a usage error like any other.
func TestUnknownFlagFails(t *testing.T) {
	for _, args := range [][]string{{"-definitely-not-a-flag"}, {"-bench", "core"}} {
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

// TestServeBadAddrFails: an unbindable -serve address is a startup error,
// not a silent no-op.
func TestServeBadAddrFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "table2", "-serve", "256.256.256.256:1"}, &out, &errb); code != 1 {
		t.Fatalf("bad -serve addr exited %d, want 1 (stderr: %s)", code, errb.String())
	}
}
