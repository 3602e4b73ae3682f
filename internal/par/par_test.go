package par

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f with GOMAXPROCS set to n, restoring it afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// goid returns the current goroutine's id, parsed from its stack header.
func goid() int64 {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	id, err := strconv.ParseInt(string(s[:bytes.IndexByte(s, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func TestMapReturnsResultsByIndex(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			got := Map(37, func(i int) int { return i * i })
			if len(got) != 37 {
				t.Fatalf("GOMAXPROCS=%d: %d results, want 37", procs, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("GOMAXPROCS=%d: out[%d]=%d, want %d", procs, i, v, i*i)
				}
			}
			if got := Map(0, func(int) int { panic("no job to run") }); len(got) != 0 {
				t.Fatalf("GOMAXPROCS=%d: n=0 returned %d results", procs, len(got))
			}
		})
	}
}

// TestMapPanicReachesCaller: jobs 3 and 5 panic; the caller sees job 3's
// value unchanged, whatever the budget, and no job past the panics is
// claimed once the workers have stopped.
func TestMapPanicReachesCaller(t *testing.T) {
	type boom struct{ i int }
	for _, procs := range []int{1, 4} {
		var ran atomic.Int64
		var got any
		withProcs(procs, func() {
			defer func() { got = recover() }()
			Map(1000, func(i int) int {
				ran.Add(1)
				if i == 3 || i == 5 {
					panic(boom{i})
				}
				return i
			})
		})
		if got != (boom{3}) {
			t.Fatalf("GOMAXPROCS=%d: recovered %v (%T), want boom{3}", procs, got, got)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("GOMAXPROCS=%d: all %d jobs ran after a panic", procs, n)
		}
	}
}

func TestMapPanicValueKeepsType(t *testing.T) {
	err := fmt.Errorf("conservation broken")
	var got any
	withProcs(4, func() {
		defer func() { got = recover() }()
		Map(8, func(i int) int {
			if i == 6 {
				panic(err)
			}
			return i
		})
	})
	if got != err {
		t.Fatalf("recovered %v, want the original error value", got)
	}
}

// TestMapSharesOneBudget: nested Maps draw on one process-wide budget of
// GOMAXPROCS goroutines, the callers included.
func TestMapSharesOneBudget(t *testing.T) {
	t.Run("nested", func(t *testing.T) {
		// An outer Map of 8 jobs, each running an inner Map of 8 leaf jobs:
		// never more than GOMAXPROCS leaves at once, every result by index.
		var running, peak atomic.Int64
		var got [][]int
		withProcs(4, func() {
			got = Map(8, func(i int) []int {
				return Map(8, func(j int) int {
					r := running.Add(1)
					for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
					}
					time.Sleep(100 * time.Microsecond)
					running.Add(-1)
					return 8*i + j
				})
			})
		})
		if p := peak.Load(); p > 4 {
			t.Fatalf("%d leaf jobs ran at once, budget 4", p)
		}
		for i, row := range got {
			for j, v := range row {
				if v != 8*i+j {
					t.Fatalf("out[%d][%d]=%d, want %d", i, j, v, 8*i+j)
				}
			}
		}
		if h := helpers.Load(); h != 0 {
			t.Fatalf("%d helpers still live after Map returned", h)
		}
	})

	t.Run("serial", func(t *testing.T) {
		// GOMAXPROCS 1: every job, inner ones included, runs on the
		// caller's goroutine in index order.
		caller := goid()
		var order []int
		withProcs(1, func() {
			Map(4, func(i int) int {
				Map(4, func(j int) int {
					if id := goid(); id != caller {
						t.Errorf("job %d.%d ran on goroutine %d, caller is %d", i, j, id, caller)
					}
					order = append(order, 4*i+j)
					return j
				})
				return i
			})
		})
		for k, v := range order {
			if v != k {
				t.Fatalf("order %v, want 0..15 ascending", order)
			}
		}
		if len(order) != 16 {
			t.Fatalf("%d jobs ran, want 16", len(order))
		}
	})

	t.Run("inner-panic", func(t *testing.T) {
		// Inner jobs (2,5) and (6,1) panic: the outermost caller recovers
		// the lowest-index value, whatever goroutine raised it.
		type boom struct{ i, j int }
		var got any
		withProcs(4, func() {
			defer func() { got = recover() }()
			Map(8, func(i int) int {
				Map(8, func(j int) int {
					if (i == 2 && j == 5) || (i == 6 && j == 1) {
						panic(boom{i, j})
					}
					return j
				})
				return i
			})
		})
		if got != (boom{2, 5}) {
			t.Fatalf("recovered %v (%T), want boom{2 5}", got, got)
		}
		if h := helpers.Load(); h != 0 {
			t.Fatalf("%d helpers still live after Map panicked", h)
		}
	})
}
