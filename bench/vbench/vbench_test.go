package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for vbench's worker: run()
// re-executes os.Executable(), which under `go test` is this binary. The
// tests run from the repository root, as vbench does; worker children
// inherit it.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// runSmoke runs every workload at smoke size for one pass and returns the
// metric lines by "<workload> <metric>" and the final verdict.
func runSmoke(t *testing.T, trace string) (map[string][]string, verdict) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "all", "-size", "smoke", "-seed", "42", "-seconds", "0",
		"-trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("vbench -trace %s exited %d\nstderr:\n%s", trace, code, stderr.String())
	}
	lines := map[string][]string{}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) == 4 {
			lines[f[0]+" "+f[1]] = append(lines[f[0]+" "+f[1]], last)
		}
	}
	var v verdict
	if err := json.Unmarshal([]byte(last), &v); err != nil {
		t.Fatalf("last stdout line %q is not the verdict: %v", last, err)
	}
	return lines, v
}

// checkLines asserts every metric of specs prints exactly once per workload
// with its unit and a finite value.
func checkLines(t *testing.T, lines map[string][]string, specs []metricSpec) {
	t.Helper()
	for _, w := range workloadNames() {
		for _, m := range specs {
			got := lines[w+" "+m.name]
			if len(got) != 1 {
				t.Errorf("%s %s printed %d times, want once", w, m.name, len(got))
				continue
			}
			f := strings.Fields(got[0])
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: value not finite", got[0])
			}
			if f[3] != m.unit {
				t.Errorf("%s: unit %q, want %q", got[0], f[3], m.unit)
			}
		}
	}
}

func TestSmoke(t *testing.T) {
	g, err := loadGolden(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		if _, ok := g[goldenKey(w, 42, "smoke")]; !ok {
			t.Fatalf("golden has no %s entry: the digest check would be vacuous", goldenKey(w, 42, "smoke"))
		}
	}
	outDir := t.TempDir()
	t.Setenv("CARGO_TARGET_DIR", outDir)

	lines, v := runSmoke(t, "0")
	checkLines(t, lines, endToEnd)
	if !v.Correct || v.Failed != 0 || v.Attempted == 0 {
		t.Fatalf("verdict correct=%v failed=%d attempted=%d, want a clean run", v.Correct, v.Failed, v.Attempted)
	}
	for name, m := range v.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}

	lines, v = runSmoke(t, "1")
	checkLines(t, lines, perLayer)
	if !v.Correct || v.Failed != 0 {
		t.Fatalf("traced verdict correct=%v failed=%d", v.Correct, v.Failed)
	}
	for _, w := range workloadNames() {
		checkSpans(t, filepath.Join(outDir, "vbench-trace-"+w+".json"))
	}
}

// checkSpans asserts the span file parses and every child span lies inside
// its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[float64]chromeEvent{}
	for _, e := range ct.TraceEvents {
		byID[e.Args["id"].(float64)] = e
	}
	const eps = 1e-3 // microseconds of float rounding
	for _, e := range ct.TraceEvents {
		pid := e.Args["parent"].(float64)
		if pid == 0 {
			continue
		}
		p, ok := byID[pid]
		if !ok {
			t.Errorf("%s: span %q has unknown parent %v", path, e.Name, pid)
			continue
		}
		if e.TS < p.TS-eps || e.TS+e.Dur > p.TS+p.Dur+eps {
			t.Errorf("%s: span %q [%v,+%v] outside parent %q [%v,+%v]", path, e.Name, e.TS, e.Dur, p.Name, p.TS, p.Dur)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics vbench
// prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, vbench has %v", names, workloadNames())
	}
	check := func(section string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, vbench has %d", section, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, vbench has %+v", section, i, g, m)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
