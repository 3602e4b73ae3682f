// Package par runs independent, index-addressed jobs under one process-wide
// parallelism budget. It is the only fan-out in the simulator, with two
// callers: the experiment harness's trials (harness.Run) and every
// experiment's cells (experiments.cells), which a trial runs nested inside
// its job. Results come back by index, so output never depends on which
// goroutine ran a job or when.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines live in every Map of the process. The
// goroutine that calls Map is not counted: it was running already.
var helpers atomic.Int64

// recruit reserves one helper slot if fewer than GOMAXPROCS-1 helpers are
// live, so the callers plus their helpers never outnumber GOMAXPROCS.
func recruit() bool {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		h := helpers.Load()
		if h >= limit {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// Map calls run(i) for every i in [0, n) and returns the results by index.
// The calling goroutine runs jobs itself. Before it claims a job, a worker
// recruits one helper goroutine if another job remains and the process-wide
// budget of GOMAXPROCS-1 helpers has room; a helper releases its slot when it
// finds no job left. Nested Maps draw on the same budget, so a Map called from
// inside a job picks up the helpers that sibling jobs free as they finish.
// Under GOMAXPROCS=1 no helper is ever recruited and every job runs in index
// order on the caller's goroutine: the serial reference path.
//
// A panicking job stops the workers from claiming further jobs. Once the jobs
// already claimed have finished, the lowest-index panic is re-raised on the
// caller's goroutine with its original value, where the caller's own recover
// (the experiment harness's per-trial one, say) can catch it. Jobs are claimed
// in index order, so every job below a panicking one has run: for
// deterministic jobs the re-raised value is the one a serial run raises.
func Map[T any](n int, run func(i int) T) []T {
	out := make([]T, n)
	var (
		next   atomic.Int64
		stop   atomic.Bool
		mu     sync.Mutex
		lowest = n // index of the lowest panicking job; n when none
		value  any
		wg     sync.WaitGroup
	)
	call := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				stop.Store(true)
				mu.Lock()
				if i < lowest {
					lowest, value = i, p
				}
				mu.Unlock()
			}
		}()
		out[i] = run(i)
	}
	var work func()
	work = func() {
		for !stop.Load() {
			if next.Load() < int64(n-1) && recruit() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer helpers.Add(-1)
					work()
				}()
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			call(i)
		}
	}
	work()
	wg.Wait()
	if lowest < n {
		panic(value)
	}
	return out
}
