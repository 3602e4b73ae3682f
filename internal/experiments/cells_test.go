package experiments_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vsched/internal/experiments"
	"vsched/internal/harness"
	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// cellExperiments are the experiments whose independent simulations run as
// cells: the paper suite, the micro-tier fleet (one cell per policy and
// guest, two of them with a telemetry recorder), and the macro-tier
// fleetscale (one per policy) and faulttol (one per mode).
// cheapCellExperiments is the subset checked under -short.
var (
	cellExperiments = []string{"fig2", "fig3", "fig4", "table2", "fig11", "fig12", "fig13",
		"fig14", "table3", "fig15", "table4", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"fleet", "fleetscale", "faulttol"}
	cheapCellExperiments = map[string]bool{
		"fig3": true, "fig4": true, "table2": true, "fig11": true, "table3": true, "table4": true, "fig16": true,
		"fleet": true, "fleetscale": true, "faulttol": true,
	}
)

// withProcs runs f with GOMAXPROCS set to n, restoring it afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// cellRun is everything a harness trial records about one run.
type cellRun struct {
	Report    string
	Events    uint64
	Engines   int
	Metrics   map[string]float64
	Telemetry map[string]*telemetry.Snapshot
}

func runCells(r experiments.Runner, procs int) cellRun {
	var out cellRun
	withProcs(procs, func() {
		stats := &experiments.Stats{}
		out.Report = r.Run(experiments.Options{Seed: 42, Scale: 0.05, Stats: stats}).String()
		out.Events = stats.EventsFired()
		out.Engines = stats.Engines()
		out.Metrics = stats.MetricsSnapshot()
		out.Telemetry = stats.TelemetrySnapshot()
	})
	return out
}

// TestCellsMatchSerial: a cell-parallel run (GOMAXPROCS 4) records exactly
// what the serial reference path (GOMAXPROCS 1) records — the report bytes,
// the effort counters and every snapshot, #n-suffixed labels included.
func TestCellsMatchSerial(t *testing.T) {
	for _, id := range cellExperiments {
		if testing.Short() && !cheapCellExperiments[id] {
			continue
		}
		t.Run(id, func(t *testing.T) {
			r, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("%s is not registered", id)
			}
			serial, parallel := runCells(r, 1), runCells(r, 4)
			if serial.Report != parallel.Report {
				t.Fatalf("report differs:\n--- GOMAXPROCS=1 ---\n%s--- GOMAXPROCS=4 ---\n%s", serial.Report, parallel.Report)
			}
			if serial.Engines < 2 || len(serial.Metrics) == 0 {
				t.Fatalf("serial run recorded %d engines, %d metrics: not a multi-cell experiment",
					serial.Engines, len(serial.Metrics))
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("stats differ: events %d vs %d, engines %d vs %d, %d vs %d metrics",
					serial.Events, parallel.Events, serial.Engines, parallel.Engines,
					len(serial.Metrics), len(parallel.Metrics))
			}
		})
	}
}

// TestCellsMergeInCellOrder: registrations reach the parent in cell order,
// after whatever the parent tracked itself, however the cells' completion
// order is scrambled — so the #n labels are the ones a serial run assigns.
func TestCellsMergeInCellOrder(t *testing.T) {
	const n = 8
	stats := &experiments.Stats{}
	parentReg := metrics.NewRegistry()
	parentReg.Gauge("cell").Set(-1)
	stats.TrackRegistry("vm", parentReg)
	withProcs(4, func() {
		experiments.RunCells(experiments.Options{Stats: stats}, n, func(i int, o experiments.Options) int {
			time.Sleep(time.Duration(n-i) * time.Millisecond) // later cells finish first
			reg := metrics.NewRegistry()
			reg.Gauge("cell").Set(float64(i))
			o.Stats.TrackRegistry("vm", reg)
			return i
		})
	})
	m := stats.MetricsSnapshot()
	if m["vm.cell"] != -1 {
		t.Fatalf("parent's own registry lost its label: vm.cell=%v", m["vm.cell"])
	}
	for i := 0; i < n; i++ {
		if got := m[fmt.Sprintf("vm#%d.cell", i+2)]; got != float64(i) {
			t.Fatalf("vm#%d.cell=%v, want cell %d", i+2, got, i)
		}
	}
}

// TestCellsPanicReachesCaller: cells 2 and 5 panic. The experiment's caller
// gets cell 2's value unchanged, and the harness records the trial as failed
// instead of the process dying in a worker goroutine.
func TestCellsPanicReachesCaller(t *testing.T) {
	type boom struct{ cell int }
	bomb := experiments.Runner{ID: "bomb", Title: "cells that panic", Run: func(opt experiments.Options) *experiments.Report {
		experiments.RunCells(opt, 8, func(i int, o experiments.Options) int {
			eng := sim.NewEngine(o.Seed)
			o.Stats.Track(eng)
			eng.RunFor(sim.Millisecond)
			if i == 2 || i == 5 {
				panic(boom{i})
			}
			return i
		})
		return &experiments.Report{ID: "bomb", Title: "unreachable"}
	}}
	withProcs(4, func() {
		got := func() (p any) {
			defer func() { p = recover() }()
			bomb.Run(experiments.Options{Seed: 1, Stats: &experiments.Stats{}})
			return nil
		}()
		if got != (boom{2}) {
			t.Fatalf("recovered %v (%T), want boom{2}", got, got)
		}

		res := harness.Run(harness.Config{Runners: []experiments.Runner{bomb}, BaseSeed: 1})
		tr := res.Experiments[0].Trials[0]
		if tr.OK() || tr.Err != "panic: {2}" {
			t.Fatalf("harness recorded err %q ok=%v, want \"panic: {2}\"", tr.Err, tr.OK())
		}
	})
}

// TestCellsInterrupt: Stats.Interrupt from another goroutine freezes the
// cells in flight and every cell started later, so a cell-parallel fig19 —
// ~93 simulations, seconds of work at full scale — unwinds promptly.
func TestCellsInterrupt(t *testing.T) {
	r, _ := experiments.ByID("fig19")
	stats := &experiments.Stats{}
	withProcs(4, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Run(experiments.Options{Seed: 42, Scale: 1, Stats: stats})
		}()
		for stats.Engines() < 2 { // cells in flight
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		stats.Interrupt()
		select {
		case <-done:
			t.Logf("fig19 unwound %v after Interrupt, %d engines built", time.Since(start), stats.Engines())
		case <-time.After(2 * time.Second):
			t.Fatal("fig19 still running 2s after Interrupt")
		}
	})
}
