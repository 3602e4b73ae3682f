package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"vsched/internal/experiments"
)

// crosscheckMain runs the paper suite through the same path the paper
// workload uses, at the committed record's settings (cmd/experiments -run all:
// seed 42, scale 1), and checks that each report equals its block in that
// record — the proof that vbench drives the experiments exactly as
// cmd/experiments does.
func crosscheckMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: vbench crosscheck experiments_full.txt")
		return 2
	}
	path := args[0]
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 1
	}
	want := reportBlocks(string(b))
	bad := 0
	for _, id := range paperIDs {
		r, _ := experiments.ByID(id)
		got, _ := reportText(r, 42, 1)
		if got != want[id] {
			bad++
			fmt.Fprintf(stdout, "%s MISMATCH\n--- record\n%s--- vbench\n%s", id, want[id], got)
			continue
		}
		fmt.Fprintf(stdout, "%s ok\n", id)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d of %d reports differ from %s\n", bad, len(paperIDs), path)
		return 1
	}
	fmt.Fprintf(stdout, "all %d paper reports match %s\n", len(paperIDs), path)
	return 0
}

// reportBlocks splits cmd/experiments text output into each experiment's
// report text, keyed by id. The harness prints every report followed by one
// blank line, and a report has no blank line of its own.
func reportBlocks(text string) map[string]string {
	out := map[string]string{}
	for _, block := range strings.Split(text, "\n\n") {
		rest, ok := strings.CutPrefix(block, "== ")
		if !ok {
			continue
		}
		id, _, _ := strings.Cut(rest, ":")
		out[id] = block + "\n"
	}
	return out
}
