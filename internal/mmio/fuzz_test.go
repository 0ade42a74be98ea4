package mmio

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead drives the Matrix Market reader with arbitrary input: it must
// never panic, and whatever it accepts must be a structurally valid CSR
// matrix of finite values that survives a write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.0\n3 1 -2.5\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 NaN\n2 2 +Inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
		for _, v := range m.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v", v)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, m, false); err != nil {
			t.Fatalf("write of accepted matrix failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted matrix failed: %v", err)
		}
		if back.NNZ() != m.NNZ() || back.Rows != m.Rows || back.Cols != m.Cols {
			t.Fatalf("round trip changed shape/nnz")
		}
	})
}
