package sparse

// MulVecGo is MulVec on the Go row loop alone, whatever GOARCH: the
// reference the external tests and BenchmarkSpMVBody hold MulVec to.
func (m *CSR) MulVecGo(y, x []float64) { m.mulColGo(y, x, 0, m.Rows) }
