package mmio

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestRoundTripGeneral(t *testing.T) {
	m, _ := sparse.NewCSRFromTriplets(3, 4, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1.5}, {Row: 0, Col: 3, Val: -2}, {Row: 1, Col: 1, Val: 3.25}, {Row: 2, Col: 0, Val: 1e-12},
	})
	var buf bytes.Buffer
	if err := Write(&buf, m, false); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != 3 || back.Cols != 4 || back.NNZ() != 4 {
		t.Fatalf("shape %dx%d nnz=%d", back.Rows, back.Cols, back.NNZ())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(back.At(i, j)-m.At(i, j)) > 1e-18 {
				t.Fatalf("(%d,%d): %g vs %g", i, j, back.At(i, j), m.At(i, j))
			}
		}
	}
}

// TestRoundTripSymmetric writes each matrix's lower triangle and reads it
// back. jump64x64-b8-j1e3 is the golden reference run's matrix, written the
// way `mmtool gen` writes it: the same Fingerprint shows that fsaisolve,
// reading the file, solves exactly the matrix the golden test pins.
func TestRoundTripSymmetric(t *testing.T) {
	jump, ok := matgen.ByName("jump64x64-b8-j1e3")
	if !ok {
		t.Fatal("jump64x64-b8-j1e3 missing from the suite")
	}
	for name, m := range map[string]*sparse.CSR{
		"laplace6x6":        matgen.Laplace2D(6, 6),
		"jump64x64-b8-j1e3": jump.Generate(),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, m, true); err != nil {
				t.Fatal(err)
			}
			text := buf.String()
			if !strings.Contains(text, "symmetric") {
				t.Error("missing symmetric header")
			}
			back, err := Read(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			if back.NNZ() != m.NNZ() {
				t.Fatalf("nnz %d vs %d", back.NNZ(), m.NNZ())
			}
			if !back.IsSymmetric(0) {
				t.Error("mirrored matrix not symmetric")
			}
			for i := 0; i < m.Rows; i++ {
				cols, vals := m.Row(i)
				for k, j := range cols {
					if back.At(i, j) != vals[k] {
						t.Fatalf("(%d,%d) mismatch", i, j)
					}
				}
			}
			if back.Fingerprint() != m.Fingerprint() {
				t.Errorf("read-back fingerprint %s, want %s", back.Fingerprint(), m.Fingerprint())
			}
		})
	}
}

func TestReadComments(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
% another

2 2 2
1 1 1.0
2 2 2.0
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 2 {
		t.Error("values wrong")
	}
}

func TestReadIntegerField(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 7 {
		t.Error("integer value wrong")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"not a header\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // truncated
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n", // bad index
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",     // short line
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 NaN\n", // not finite
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 Inf\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -inf\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e308\n1 1 1e308\n", // duplicates sum to +Inf
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	m := matgen.Wathen(3, 3, 1)
	if err := WriteFile(path, m, true); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() {
		t.Errorf("nnz %d vs %d", back.NNZ(), m.NNZ())
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Error("missing file accepted")
	}
}
