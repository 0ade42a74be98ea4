//go:build !amd64

package sparse

// mulCol is the single-column row loop: mulColGo, on every GOARCH without
// an assembly body.
func (m *CSR) mulCol(y0, x0 []float64, lo, hi int) { m.mulColGo(y0, x0, lo, hi) }
