package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Differential tests of the single-column row loop: mulCol (the assembly
// body on amd64, mulColGo elsewhere) against mulColGo, the Go body.

// callBody runs one body over [lo, hi) and returns the message of the
// panic it raised, or "" if it returned.
func callBody(body func(y0, x0 []float64, lo, hi int), y0, x0 []float64, lo, hi int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	body(y0, x0, lo, hi)
	return ""
}

// diffBodies runs both bodies on copies of y and reports the first way
// they differ: in the panic they raise, or in a y value. A NaN must meet a
// NaN; its payload bits are not compared. Every other value must match bit
// for bit, so -0 must meet -0.
func diffBodies(m *CSR, y, x []float64, lo, hi int) error {
	yg := append([]float64(nil), y...)
	ya := append([]float64(nil), y...)
	pg := callBody(m.mulColGo, yg, x, lo, hi)
	pa := callBody(m.mulCol, ya, x, lo, hi)
	if pg != pa {
		return fmt.Errorf("[%d,%d): Go body panics %q, mulCol %q", lo, hi, pg, pa)
	}
	for i := range yg {
		g, a := yg[i], ya[i]
		if math.IsNaN(g) && math.IsNaN(a) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(a) {
			return fmt.Errorf("[%d,%d) y[%d]: Go body %v (%#x), mulCol %v (%#x)",
				lo, hi, i, g, math.Float64bits(g), a, math.Float64bits(a))
		}
	}
	return nil
}

// specialValue draws a value that is, about a third of the time, one the
// arithmetic treats specially: ±0, a subnormal, ±Inf, NaN, or one whose
// products overflow or underflow.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(30) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 3:
		return -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.NaN()
	case 7:
		return math.Float64frombits(0x7ff8_0000_0000_0000 | rng.Uint64()&0xf_ffff_ffff_ffff | 1<<63)
	case 8:
		return 1e300 * rng.NormFloat64()
	case 9:
		return 1e-300 * rng.NormFloat64()
	default:
		return rng.NormFloat64()
	}
}

// spmvTestCSR builds a rows × cols CSR (cols >= 13) whose rows hold 0 to 13
// sorted, distinct columns, so every remainder 0–3 of the four-step loop
// runs, with values from specialValue.
func spmvTestCSR(rng *rand.Rand, rows, cols int) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		row := rng.Perm(cols)[:rng.Intn(14)]
		sort.Ints(row)
		for _, j := range row {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, specialValue(rng))
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

func spmvTestVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = specialValue(rng)
	}
	return x
}

// TestSpMVBodiesBitIdentical runs both bodies over random sub-ranges of
// random CSRs whose values and x include ±0, subnormals, ±Inf and NaN.
func TestSpMVBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(60), 13+rng.Intn(40)
		m := spmvTestCSR(rng, rows, cols)
		x := spmvTestVec(rng, cols)
		y := spmvTestVec(rng, rows)
		for r := 0; r < 8; r++ {
			lo := rng.Intn(rows + 1)
			hi := lo + rng.Intn(rows-lo+1)
			if err := diffBodies(m, y, x, lo, hi); err != nil {
				t.Fatalf("trial %d (%dx%d): %v", trial, rows, cols, err)
			}
		}
		if err := diffBodies(m, y, x, 0, rows); err != nil {
			t.Fatalf("trial %d (%dx%d), all rows: %v", trial, rows, cols, err)
		}
	}
}

// TestSpMVBodiesMalformed feeds both bodies every malformed shape the
// checks guard: each must raise the Go body's panic, with its message, or
// leave y as the Go body leaves it.
func TestSpMVBodiesMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	base := func() *CSR { return spmvTestCSR(rand.New(rand.NewSource(36)), 40, 20) }
	// A row of 6 or 7 entries: its first four run in the four-step loop,
	// the rest in the remainder loop.
	row := func(m *CSR) int {
		for i := 5; i < m.Rows; i++ {
			if n := m.RowNNZ(i); n == 6 || n == 7 {
				return i
			}
		}
		t.Fatal("no row of 6 or 7 entries")
		return 0
	}
	type mangle struct {
		name   string
		mangle func(m *CSR)
	}
	var cases []mangle
	for e := 0; e < 6; e++ {
		for _, c := range []struct {
			name string
			col  func(m *CSR) int
		}{
			{"= Cols", func(m *CSR) int { return m.Cols }},
			{"> Cols", func(m *CSR) int { return m.Cols + 7 }},
			{"-1", func(*CSR) int { return -1 }},
			{"MinInt", func(*CSR) int { return math.MinInt }},
		} {
			cases = append(cases, mangle{fmt.Sprintf("column %s at entry %d", c.name, e), func(m *CSR) {
				m.ColIdx[m.RowPtr[row(m)]+e] = c.col(m)
			}})
		}
	}
	cases = append(cases, []mangle{
		{"RowPtr past nnz", func(m *CSR) {
			i := row(m)
			for j := i + 1; j <= m.Rows; j++ {
				m.RowPtr[j] = m.NNZ() + 3
			}
		}},
		{"RowPtr past nnz, last row", func(m *CSR) { m.RowPtr[m.Rows] = m.NNZ() + 1 }},
		{"decreasing RowPtr", func(m *CSR) { i := row(m); m.RowPtr[i] = m.RowPtr[i+1] + 2 }},
		{"decreasing RowPtr to before the row", func(m *CSR) { i := row(m); m.RowPtr[i+1] = m.RowPtr[i] - 3 }},
		{"negative RowPtr", func(m *CSR) { m.RowPtr[row(m)] = -4 }},
		{"negative RowPtr, empty row", func(m *CSR) { i := row(m); m.RowPtr[i], m.RowPtr[i+1] = -4, -4 }},
		{"len(Val) < len(ColIdx)", func(m *CSR) { m.Val = m.Val[:m.RowPtr[row(m)]+3] }},
		{"len(ColIdx) < len(Val)", func(m *CSR) { m.ColIdx = m.ColIdx[:m.RowPtr[row(m)]+1] }},
		{"short RowPtr", func(m *CSR) { m.RowPtr = m.RowPtr[:row(m)+1] }},
	}...)
	bad := row(base())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := base()
			c.mangle(m)
			x := spmvTestVec(rng, m.Cols)
			y := spmvTestVec(rng, m.Rows)
			for _, r := range [][2]int{{0, m.Rows}, {3, m.Rows - 2}, {bad, bad + 1}, {bad + 1, m.Rows}} {
				if err := diffBodies(m, y, x, r[0], r[1]); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	// Ranges the wrapper's O(1) checks refuse: the Go body runs them whole.
	m := base()
	x := spmvTestVec(rng, m.Cols)
	y := spmvTestVec(rng, m.Rows)
	for _, r := range [][2]int{{0, m.Rows + 1}, {5, m.Rows + 3}, {-1, 4}, {-2, -1}, {7, 3}} {
		if err := diffBodies(m, y, x, r[0], r[1]); err != nil {
			t.Errorf("range past the rows: %v", err)
		}
	}
	if err := diffBodies(m, y[:m.Rows-5], x, 0, m.Rows); err != nil {
		t.Errorf("short y: %v", err)
	}
	if err := diffBodies(m, y, x[:m.Cols-1], 0, m.Rows); err != nil {
		t.Errorf("short x: %v", err)
	}
	if err := diffBodies(m, y, nil, 0, m.Rows); err != nil {
		t.Errorf("nil x: %v", err)
	}
}

// TestSpMVBodiesAcrossBlocks runs ranges that span the assembly's
// preemption blocks, with a bad row in a later block, so the Go body takes
// over mid-range after whole blocks have run.
func TestSpMVBodiesAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, rows := range []int{spmvBlockRows - 1, spmvBlockRows, spmvBlockRows + 1, 3*spmvBlockRows + 17} {
		m := spmvTestCSR(rng, rows, 29)
		x := spmvTestVec(rng, m.Cols)
		y := spmvTestVec(rng, rows)
		for _, r := range [][2]int{{0, rows}, {1, rows}, {spmvBlockRows - 3, rows}, {rows / 2, rows - 1}} {
			if r[0] > r[1] {
				continue
			}
			if err := diffBodies(m, y, x, r[0], r[1]); err != nil {
				t.Fatalf("%d rows: %v", rows, err)
			}
		}
		// A decreasing RowPtr in the second block: an empty row to both.
		if rows > spmvBlockRows+10 {
			i := spmvBlockRows + 5
			m.RowPtr[i] = m.RowPtr[i+1] + 1
			if err := diffBodies(m, y, x, 0, rows); err != nil {
				t.Fatalf("%d rows, bad row %d: %v", rows, i, err)
			}
		}
	}
}

// FuzzSpMVBody decodes a CSR, x, y and a row range from the input, well
// formed or not, and requires mulCol to match the Go body: the same panic
// message, or the same y.
func FuzzSpMVBody(f *testing.F) {
	f.Add([]byte{5, 3, 0, 2, 4, 1, 13, 2, 9, 0, 8, 1})
	f.Add([]byte("\x0d\x11\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\xff\xfe\x80\x7f"))
	f.Add([]byte{40, 20, 3, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput{data: data}
		rows, cols := in.intn(70), in.intn(40)
		mode := in.next()
		m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
		for i := 0; i < rows; i++ {
			n := int(in.next() % 14)
			for e := 0; e < n; e++ {
				c := int(in.next())
				if cols > 0 && mode&1 == 0 {
					c %= cols
				} else {
					c -= 8 // -8…247: in range or not, negatives included
				}
				m.ColIdx = append(m.ColIdx, c)
				m.Val = append(m.Val, in.float())
			}
			m.RowPtr[i+1] = len(m.ColIdx)
		}
		if mode&2 != 0 && rows > 0 { // one RowPtr entry moved anywhere
			m.RowPtr[in.intn(rows+1)] = int(int8(in.next())) + m.NNZ()/2
		}
		if mode&4 != 0 && len(m.Val) > 0 {
			m.Val = m.Val[:in.intn(len(m.Val))]
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = in.float()
		}
		y := make([]float64, rows)
		for i := range y {
			y[i] = in.float()
		}
		lo, hi := 0, rows
		if mode&8 != 0 {
			lo, hi = int(int8(in.next()))%(rows+2), int(in.next())%(rows+2)
		}
		if err := diffBodies(m, y, x, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzInput hands out the fuzzer's bytes; past the end it yields zeros.
type fuzzInput struct {
	data []byte
	off  int
}

func (in *fuzzInput) next() byte {
	if in.off >= len(in.data) {
		return 0
	}
	b := in.data[in.off]
	in.off++
	return b
}

func (in *fuzzInput) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(in.next()) % n
}

// float takes one byte as a selector: most select a small value, the rest
// raw bits from the next eight bytes, so NaNs, infinities, subnormals and
// signed zeros all reach the bodies.
func (in *fuzzInput) float() float64 {
	s := in.next()
	if s < 200 {
		return float64(int(s)-100) / 8
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(in.next())
	}
	return math.Float64frombits(u)
}
