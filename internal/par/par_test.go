package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapReturnsResultsByIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 4, 64} {
		got := Map(37, workers, func(i int) int { return i * i })
		if len(got) != 37 {
			t.Fatalf("workers=%d: %d results, want 37", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := Map(0, 4, func(int) int { panic("no job to run") }); len(got) != 0 {
		t.Fatalf("n=0 returned %d results", len(got))
	}
}

// TestMapPanicReachesCaller: jobs 3 and 5 panic; the caller sees job 3's
// value unchanged, whatever the worker count, and no job past the panics is
// claimed once the workers have stopped.
func TestMapPanicReachesCaller(t *testing.T) {
	type boom struct{ i int }
	for _, workers := range []int{1, 2, 4} {
		var ran atomic.Int64
		got := func() (p any) {
			defer func() { p = recover() }()
			Map(1000, workers, func(i int) int {
				ran.Add(1)
				if i == 3 || i == 5 {
					panic(boom{i})
				}
				return i
			})
			return nil
		}()
		if got != (boom{3}) {
			t.Fatalf("workers=%d: recovered %v (%T), want boom{3}", workers, got, got)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: all %d jobs ran after a panic", workers, n)
		}
	}
}

func TestMapPanicValueKeepsType(t *testing.T) {
	err := fmt.Errorf("conservation broken")
	got := func() (p any) {
		defer func() { p = recover() }()
		Map(8, 4, func(i int) int {
			if i == 6 {
				panic(err)
			}
			return i
		})
		return nil
	}()
	if got != err {
		t.Fatalf("recovered %v, want the original error value", got)
	}
}
