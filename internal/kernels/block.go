// Block (multi-right-hand-side) scratch: the size-keyed pool for the block
// solver's column-major n×k work vectors (column j of an n×k block b is
// b[j*n:(j+1)*n], the layout shared with internal/sparse and krylov), the
// scratch a solve hands its preconditioner's apply included.
package kernels

import "sync"

// blockScratch pools float64 buffers keyed by exact length, so repeated
// block solves at the same (rows × k) reuse their work blocks instead of
// allocating them per call.
var blockScratch sync.Map // int -> *sync.Pool of *[]float64

// GetBlockScratch returns a buffer of length n from the size-keyed pool,
// as the pointer the pool holds it by: hand that pointer back to
// PutBlockScratch, so the round trip allocates nothing. Contents are
// unspecified; callers must initialize what they read.
func GetBlockScratch(n int) *[]float64 {
	p, ok := blockScratch.Load(n)
	if !ok {
		p, _ = blockScratch.LoadOrStore(n, &sync.Pool{New: func() any {
			s := make([]float64, n)
			return &s
		}})
	}
	return p.(*sync.Pool).Get().(*[]float64)
}

// PutBlockScratch returns a buffer obtained from GetBlockScratch to its
// size-keyed pool.
func PutBlockScratch(s *[]float64) {
	if p, ok := blockScratch.Load(len(*s)); ok {
		p.(*sync.Pool).Put(s)
	}
}
