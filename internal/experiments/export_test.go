package experiments

// RunCells exposes cells to the external tests, which drive it through the
// harness.
func RunCells(opt Options, n int, run func(i int, o Options) int) []int {
	return cells(opt, n, run)
}
