// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig14                  # one experiment
//	experiments -run all                    # everything, in paper order
//	experiments -run fig18 -scale 0.3       # shorter measurement windows
//	experiments -run all -json              # machine-readable reports
//	experiments -run all -parallel 8        # run 8 trials at once
//	experiments -run all -reps 5            # 5 replicate seeds, mean±stddev cells
//	experiments -run all -timeout 10m       # per-trial wall-clock budget
//	experiments -run all -retries 2         # re-attempt timed-out/panicked trials
//	experiments -run all -out run.jsonl     # JSON-lines artifact with metadata
//	experiments -run fleetobs -telemetry    # append flight-recorder sparklines
//	experiments -run all -progress          # rate-limited done/total + ETA heartbeat on stderr
//	experiments -run all -serve :9137       # live /metrics + /runs/experiments/events while running
//
// Reports go to stdout; timing and progress go to stderr, so stdout is a
// pure function of (-run, -seed, -reps, -scale): a -parallel N run is
// byte-identical to a -parallel 1 run, and both are byte-identical to the
// fully serial GOMAXPROCS=1 run, in which an experiment's independent
// simulations (its cells) also run one after another.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"vsched/internal/experiments"
	"vsched/internal/harness"
	"vsched/internal/obshttp"
	"vsched/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in, exit code out, all output on
// the given writers.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs   = fs.String("run", "", "experiment id (fig2..fig21, table2..table4), comma list, or 'all'")
		list     = fs.Bool("list", false, "list experiment ids")
		seed     = fs.Int64("seed", 42, "base simulation seed")
		scale    = fs.Float64("scale", 1.0, "measurement window scale factor")
		verbose  = fs.Bool("v", false, "verbose notes")
		asJSON   = fs.Bool("json", false, "emit reports as JSON lines")
		parallel = fs.Int("parallel", 1, "trials run at once (1 = one at a time; each trial's cells still fan out over GOMAXPROCS, and GOMAXPROCS=1 is the fully serial path)")
		reps     = fs.Int("reps", 1, "replicate seeds per experiment; >1 adds mean±stddev [min,max] cells")
		timeout  = fs.Duration("timeout", 0, "per-trial wall-clock budget (0 = none)")
		retries  = fs.Int("retries", 0, "extra attempts per trial after a panic or timeout (0 = fail fast)")
		out      = fs.String("out", "", "write a JSON-lines run artifact (seeds, wall time, events, reports)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		telem    = fs.Bool("telemetry", false, "print flight-recorder sparkline summaries for experiments that record telemetry")
		serve    = fs.String("serve", "", "serve live observability on this address for the duration of the run: Prometheus /metrics, /runs, /runs/experiments/events, pprof (e.g. 127.0.0.1:9137, or :0 for an ephemeral port)")
		progress = fs.Bool("progress", false, "print a rate-limited progress heartbeat (done/total trials, mean trial time, ETA) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "profiling:", err)
		}
	}()

	if *list || *runIDs == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", r.ID, r.Title)
		}
		if *runIDs == "" {
			fmt.Fprintln(stdout, "\nuse -run <id> or -run all")
		}
		return 0
	}

	var runners []experiments.Runner
	if strings.EqualFold(*runIDs, "all") {
		runners = experiments.Registry()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", id)
				return 1
			}
			runners = append(runners, r)
		}
	}

	// Every measurement window is multiplied by -scale.
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(stderr, "bad -scale %v (want a finite factor > 0)\n", *scale)
		return 1
	}

	hcfg := harness.Config{
		Runners:  runners,
		BaseSeed: *seed,
		Reps:     *reps,
		Scale:    *scale,
		Verbose:  *verbose,
		Workers:  *parallel,
		Timeout:  *timeout,
		Retries:  *retries,
	}
	if *progress {
		hcfg.Heartbeat = stderr
	}
	// The live ops plane: trial progress and the run listing served over HTTP
	// while the harness runs. Publication is inert by construction (bounded
	// bus, atomic handoffs), so attaching it cannot change stdout: reports
	// stay a pure function of (-run, -seed, -reps, -scale).
	var obsRun *obshttp.Run
	if *serve != "" {
		osrv := obshttp.New(obshttp.Options{})
		bound, err := osrv.ListenAndServe(*serve)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "observability: http://%s/metrics, /runs/experiments/events\n", bound)
		obsRun = osrv.Register("experiments")
		hcfg.Obs = obsRun.Publisher()
		defer func() {
			// Mark the stream done and give attached consumers a beat to
			// drain their terminal record before the listener dies with us.
			obsRun.Finish()
			time.Sleep(100 * time.Millisecond)
			osrv.Close()
		}()
	}
	res := harness.Run(hcfg)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := res.WriteArtifact(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		for _, ex := range res.Experiments {
			for i := range ex.Trials {
				t := &ex.Trials[i]
				if !t.OK() {
					fmt.Fprintf(stderr, "%s rep %d (seed %d): %s\n", t.ExperimentID, t.Replicate, t.Seed, t.Err)
					continue
				}
				if err := enc.Encode(t.Report); err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
			}
		}
	} else {
		fmt.Fprint(stdout, res.Text())
	}
	if *telem {
		printTelemetry(stdout, res)
	}
	fmt.Fprintf(stderr, "(%d trials over %d workers: %d events in %v wall time, %d failed)\n",
		res.Trials(), res.Workers, res.EventsFired(), res.WallTime.Round(time.Millisecond), res.Failed())
	if res.Failed() > 0 {
		return 1
	}
	return 0
}

// printTelemetry dumps each trial's deterministic flight-recorder summaries
// (sparklines per series) in registry order. Snapshots contain only
// sim-clock-driven series, so this block is as reproducible as the reports
// above it.
func printTelemetry(stdout io.Writer, res *harness.Result) {
	for _, ex := range res.Experiments {
		for i := range ex.Trials {
			t := &ex.Trials[i]
			if len(t.Telemetry) == 0 {
				continue
			}
			labels := make([]string, 0, len(t.Telemetry))
			for l := range t.Telemetry {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				fmt.Fprintf(stdout, "-- %s rep %d: %s --\n%s\n", t.ExperimentID, t.Replicate, l,
					t.Telemetry[l].Summary())
			}
		}
	}
}
