package pattern

import (
	"fmt"

	"repro/internal/parallel"
)

// The builder methods below let callers construct a pattern row by row in
// ascending row order without intermediate allocations. The intended use is
//
//	p := New(r, c)
//	for i := 0; i < r; i++ {
//	        ... p.AppendCol(j) in ascending j ...
//	        p.CloseRow(i)
//	}
//
// Build does the same on row chunks in parallel.

// AppendCol appends column j to the row currently under construction.
// Callers must append strictly ascending indices within a row.
func (p *Pattern) AppendCol(j int) { p.Cols = append(p.Cols, j) }

// CloseRow finishes row i, recording its extent. Rows must be closed in
// order 0..Rows-1.
func (p *Pattern) CloseRow(i int) { p.RowPtr[i+1] = len(p.Cols) }

// Build returns the r×c pattern whose row i holds the strictly ascending
// columns row(dst, i) appends to dst. The rows run on the contiguous chunks
// parallel.Chunks(r, workers) (<=0: all CPUs) in two passes: the first
// sizes every row by building it into a scratch row the chunk reuses, a
// prefix sum over the sizes then allocates the flat Cols array exactly, and
// the second builds every row in place there. row must therefore be a pure
// function of i; the result does not depend on workers. row runs
// concurrently for rows of different chunks; a panic in it is re-raised as
// a *parallel.PanicError.
func Build(r, c, workers int, row func(dst []int, i int) []int) *Pattern {
	p := New(r, c)
	bounds := parallel.Chunks(r, workers)
	nc := len(bounds) / 2
	// First pass: RowPtr[i+1] holds the size of row i.
	parallel.For(nc, nc, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			var scratch []int
			for i := bounds[2*c]; i < bounds[2*c+1]; i++ {
				scratch = row(scratch[:0], i)
				p.RowPtr[i+1] = len(scratch)
			}
		}
	})
	for i := 0; i < r; i++ {
		p.RowPtr[i+1] += p.RowPtr[i]
	}
	p.Cols = make([]int, p.RowPtr[r])
	parallel.For(nc, nc, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			for i := bounds[2*c]; i < bounds[2*c+1]; i++ {
				lo, hi := p.RowPtr[i], p.RowPtr[i+1]
				if len(row(p.Cols[lo:lo], i)) != hi-lo {
					panic(fmt.Sprintf("pattern: Build row %d changed size between passes", i))
				}
			}
		}
	})
	return p
}
