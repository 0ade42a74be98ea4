package sparse

import "unsafe"

// StreamBytes returns the matrix traffic of one sweep of m: every stored
// value and column index plus every row pointer, read once. Element sizes
// come from the field types, so the count follows the storage layout: with
// []int indices and float64 values it is 16 B per entry and 8 B per row
// pointer. It is the byte model of the live roofline (roofline.SolveEstimate);
// the offline paper model (roofline.SpMVKernel, perfmodel) keeps the paper's
// 12 B per entry.
func (m *CSR) StreamBytes() int64 {
	perNNZ := int64(unsafe.Sizeof(m.Val[0]) + unsafe.Sizeof(m.ColIdx[0]))
	perPtr := int64(unsafe.Sizeof(m.RowPtr[0]))
	return int64(m.NNZ())*perNNZ + int64(m.Rows+1)*perPtr
}
