package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the spread tool reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadMain reads result files written by -json (untraced runs, several
// seeds) and the bounds in BENCHMARK.json, and prints for each workload and
// end-to-end metric the median, the quartiles, IQR/median and whether that
// stays inside the bound. With at least four runs it also splits them, in
// the order given, into two halves and prints how much worse the second
// half's median is than the first's: the agreement criterion of two sets of
// runs of one commit. A metric whose spread exceeds its bound reads
// "unresolved": a regression of the bound's size cannot be told from noise.
// It exits 1 when any metric is unresolved, an agreement exceeds its bound,
// or a run failed.
func spreadMain(args []string, stdout, stderr io.Writer) int {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 1
	}
	var bench benchmarkFile
	if err := json.Unmarshal(b, &bench); err != nil {
		fmt.Fprintln(stderr, "vbench: BENCHMARK.json:", err)
		return 1
	}
	runs := map[string][]*result{}
	bad := 0
	for _, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "vbench:", err)
			return 1
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			fmt.Fprintf(stderr, "vbench: %s: %v\n", path, err)
			return 1
		}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(stdout, "%s: %s seed %d failed %d of %d ops\n", path, r.Workload, r.Seed, r.Failed, r.Attempted)
				bad++
			}
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}

	fmt.Fprintf(stdout, "%-15s %-13s %3s %12s %12s %12s %8s %6s %10s %8s %5s\n",
		"workload", "metric", "n", "median", "q1", "q3", "iqr/med", "bound", "spread", "2nd-1st", "ok")
	for _, w := range workloadNames() {
		rs := runs[w]
		if len(rs) < 2 {
			continue
		}
		for _, m := range bench.EndToEnd {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.Metrics[m.Name]
			}
			med := median(vals)
			q := quartiles(vals)
			iqr := (q[2] - q[0]) / med
			spread := "ok"
			if iqr > m.Bound {
				spread = "unresolved"
				bad++
			}
			agree, agreeOK := "-", "-"
			if h := len(vals) / 2; h >= 2 {
				worse := (median(vals[h:]) - median(vals[:h])) / median(vals[:h])
				if m.Better == "higher" {
					worse = -worse
				}
				agree, agreeOK = fmt.Sprintf("%+.1f%%", 100*worse), mark(worse <= m.Bound)
				if worse > m.Bound {
					bad++
				}
			}
			fmt.Fprintf(stdout, "%-15s %-13s %3d %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %10s %8s %5s\n",
				w, m.Name, len(vals), med, q[0], q[2], 100*iqr, 100*m.Bound, spread, agree, agreeOK)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
