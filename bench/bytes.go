package main

import (
	"unsafe"

	"repro/internal/sparse"
)

// spmvBytes is the computed memory traffic of one y = A·x over a: every
// stored value and column index, every row pointer, and each element of x
// and y once (compulsory traffic; repeated gathers of x that miss in cache
// are not counted). Element sizes come from the CSR field types, so the
// model follows the storage layout if it changes; with []int indices and
// float64 values it is 16 B per nonzero and 8 B per row pointer.
func spmvBytes(a *sparse.CSR) int64 {
	perNNZ := int64(unsafe.Sizeof(a.Val[0]) + unsafe.Sizeof(a.ColIdx[0]))
	perPtr := int64(unsafe.Sizeof(a.RowPtr[0]))
	perElem := int64(unsafe.Sizeof(float64(0)))
	return int64(a.NNZ())*perNNZ + int64(a.Rows+1)*perPtr + int64(a.Rows+a.Cols)*perElem
}
