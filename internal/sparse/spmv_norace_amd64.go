//go:build !race

package sparse

// raceSpMV reports the assembly row loop's memory accesses to the race
// detector; without -race there is no detector to tell.
func raceSpMV(y0, x0, v []float64, ci, rp []int, lo, hi int) {}
