package experiments

import "vsched/internal/par"

// cells runs n independent cells of one experiment through par.Map, under the
// process-wide budget of GOMAXPROCS goroutines, and returns their results by
// index. A cell is one simulation: it builds its own engine from o, reads
// nothing but o and its index, and returns values; it never touches the
// report or the caller's Options. The caller assembles rows, notes and
// cross-cell aggregates from the results in index order (DESIGN §4.14).
//
// Each cell reports to a child of opt.Stats. Engines reach the root as they
// are built, so Stats.Interrupt freezes cells in flight and cells not yet
// started; registries, attribution profiles and recorders are merged into
// opt.Stats in cell order once every cell is done, so snapshot labels match
// a serial run's. A panicking cell stops the rest from starting and its
// value is re-raised here, on the caller's goroutine. GOMAXPROCS=1 runs the
// cells in order on the caller's goroutine: the serial reference path.
func cells[T any](opt Options, n int, run func(i int, o Options) T) []T {
	kids := make([]*Stats, n)
	for i := range kids {
		kids[i] = opt.Stats.child()
	}
	defer opt.Stats.merge(kids)
	return par.Map(n, func(i int) T {
		o := opt
		o.Stats = kids[i]
		return run(i, o)
	})
}
