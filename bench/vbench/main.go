// Command vbench is the repository's benchmark. It runs the simulator's
// workloads — the paper suite, the macro cloud tier with and without faults,
// and the observed micro fleet — times them, and checks every simulated
// output against the recorded goldens in the same run.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	vbench -workload paper|cloud|cloud-faults|fleet-observed|all -seed 42 -seconds 20 -trace 0|1 [-size full|smoke]
//	vbench -workload cloud -seed 42 -size smoke -record      # rewrite this golden key
//	vbench spread run1.json ...                              # IQR/median per metric vs BENCHMARK.json bounds
//	vbench crosscheck experiments_full.txt                   # paper suite at scale 1 vs the committed record
//
// Each workload runs in its own child process (the command re-executes
// itself), so peak RSS and GC state never leak between workloads. Every
// metric prints on its own line as "<workload> <metric> <value> <unit>", and
// the last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. The exit code is 1 when any op failed or any digest mismatched.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// workerEnv marks a child process that runs exactly one workload and writes
// its result as JSON to stdout.
const workerEnv = "VBENCH_WORKER"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	size     string
	jsonOut  string
	record   bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "all", "workload name or 'all'")
	fs.Int64Var(&c.seed, "seed", 42, "seed for the input generators")
	fs.IntVar(&c.seconds, "seconds", 20, "measurement budget per workload in seconds; the first pass always completes (0 = one pass)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: record spans, run fixtures, print per-layer metrics")
	fs.StringVar(&c.size, "size", "full", "input size: full or smoke")
	fs.StringVar(&c.jsonOut, "json", "", "also write the per-workload results to this file (input of 'vbench spread')")
	fs.BoolVar(&c.record, "record", false, "write this run's digests into the golden file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	if c.size != "full" && c.size != "smoke" {
		return c, fmt.Errorf("-size must be full or smoke, got %q", c.size)
	}
	if c.seconds < 0 {
		return c, fmt.Errorf("-seconds must be >= 0, got %d", c.seconds)
	}
	if c.workload != "all" && workloadByName(c.workload) == nil {
		return c, fmt.Errorf("unknown workload %q (want %s or all)", c.workload, workloadNames())
	}
	return c, nil
}

// run is the testable entry point: arguments in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "spread":
			return spreadMain(args[1:], stdout, stderr)
		case "crosscheck":
			return crosscheckMain(args[1:], stdout, stderr)
		}
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 2
	}
	if os.Getenv(workerEnv) == "1" {
		return workerMain(cfg, stdout, stderr)
	}

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	var results []*result
	for _, name := range names {
		r, err := spawn(name, args, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "vbench: %s: %v\n", name, err)
			return 1
		}
		results = append(results, r)
	}
	for _, r := range results {
		printResult(stdout, r)
	}
	if cfg.jsonOut != "" {
		if err := writeJSONFile(cfg.jsonOut, results); err != nil {
			fmt.Fprintln(stderr, "vbench:", err)
			return 1
		}
	}
	v := summarize(results)
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !v.Correct {
		return 1
	}
	return 0
}

// spawn re-executes this binary as the worker for one workload and returns
// its result with the child's peak RSS filled in. The child's stderr passes
// through; its stdout carries only the result JSON.
func spawn(name string, args []string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", name)...)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("worker: %v", runErr)
		}
		return nil, fmt.Errorf("worker result: %v", err)
	}
	if !r.Trace {
		// ru_maxrss is in KiB on Linux.
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		r.Metrics["peak_rss_mib"] = float64(ru.Maxrss) / 1024
	}
	return &r, nil
}

// result is one workload's outcome, passed from the worker to the parent and
// written by -json.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Size       string             `json:"size"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Passes     float64            `json:"passes"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
}

// verdict is the benchmark's last stdout line.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the per-workload results into the final line. A single
// workload reports its metrics under their plain names; 'all' prefixes each
// with its workload.
func summarize(results []*result) verdict {
	v := verdict{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		v.Correct = v.Correct && r.Correct
		v.Attempted += r.Attempted
		v.Failed += r.Failed
		for _, m := range specsFor(r.Trace) {
			name := m.name
			if len(results) > 1 {
				name = r.Workload + "." + m.name
			}
			v.Metrics[name] = metricValue{Value: r.Metrics[m.name], Unit: m.unit}
		}
	}
	return v
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s info seed=%d size=%s trace=%t nproc=%d gomaxprocs=%d passes=%.2f attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Size, r.Trace, r.NProc, r.GOMAXPROCS, r.Passes, r.Attempted, r.Failed)
	for _, m := range specsFor(r.Trace) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.name, strconv.FormatFloat(r.Metrics[m.name], 'g', -1, 64), m.unit)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// workerMain runs one workload in this process and writes its result JSON to
// stdout.
func workerMain(cfg config, stdout, stderr io.Writer) int {
	w := workloadByName(cfg.workload)
	r, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "vbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	r.NProc = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}
