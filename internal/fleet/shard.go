package fleet

import "vsched/internal/par"

// RunAll executes independent fleet cells over a worker pool and returns
// results[i] for cfgs[i]. Cells never share mutable state — each Run builds
// a private engine, hosts and registry — so the output is a pure function
// of cfgs: workers only changes wall-clock time, never a byte of any
// Result. workers <= 1 is the serial reference path.
//
// A panic in a cell (a broken conservation ledger, say) stops the pool from
// starting further cells and is re-raised on the caller's goroutine, lowest
// cell index first, so the caller's recover sees it as it would in a serial
// run instead of the process dying in a worker.
//
// onStart, when non-nil, is called from the worker goroutine with the cell
// index and the freshly built Fleet before it runs — the hook the
// experiment harness uses to register engines for interruption. It must be
// safe for concurrent calls.
func RunAll(cfgs []Config, workers int, onStart func(int, *Fleet)) []*Result {
	return par.Map(len(cfgs), workers, func(i int) *Result {
		f := New(cfgs[i])
		if onStart != nil {
			onStart(i, f)
		}
		return f.Run()
	})
}
