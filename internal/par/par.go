// Package par runs independent, index-addressed jobs over a bounded pool of
// goroutines. It is the one worker pool in the simulator: the experiment
// harness's trials (harness.Run), the micro fleet's cells (fleet.RunAll) and
// the paper experiments' cells (experiments.cells). Results come back by
// index, so output never depends on which goroutine ran a job or when.
package par

import (
	"sync"
	"sync/atomic"
)

// Map calls run(i) for every i in [0, n) on min(workers, n) goroutines and
// returns the results by index. workers <= 1 runs every job in index order on
// the caller's goroutine: the serial reference path.
//
// A panicking job stops the workers from claiming further jobs. Once the jobs
// already claimed have finished, the lowest-index panic is re-raised on the
// caller's goroutine with its original value, where the caller's own recover
// (the experiment harness's per-trial one, say) can catch it. Jobs are claimed
// in index order, so every job below a panicking one has run: for
// deterministic jobs the re-raised value is the one a serial run raises.
func Map[T any](n, workers int, run func(i int) T) []T {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			out[i] = run(i)
		}
		return out
	}

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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
	if lowest < n {
		panic(value)
	}
	return out
}
