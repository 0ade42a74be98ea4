package sparse

import "testing"

func counterMatrix(t *testing.T) *CSR {
	t.Helper()
	// 3x3 tridiagonal: 7 stored entries.
	a, err := NewCSRFromTriplets(3, 3, []Triplet{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1},
		{Row: 2, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestOpCountersDisabledByDefault(t *testing.T) {
	ResetOpCounters()
	a := counterMatrix(t)
	y, x := make([]float64, 3), []float64{1, 2, 3}
	a.MulVec(y, x)
	if c := ReadOpCounters(); c != (OpCounts{}) {
		t.Fatalf("counters collected while disabled: %+v", c)
	}
}

func TestOpCountersAccounting(t *testing.T) {
	EnableOpCounters(true)
	defer EnableOpCounters(false)
	ResetOpCounters()
	a := counterMatrix(t)
	y, x := make([]float64, 3), []float64{1, 2, 3}
	a.MulVec(y, x)
	a.MulVecParallel(y, x, 2)
	a.MulMat(y, x, 1)

	c := ReadOpCounters()
	if c.SpMVCalls != 3 {
		t.Errorf("calls = %d, want 3", c.SpMVCalls)
	}
	// Per sweep: flops = 2*7, matrix = 16*7 + 8*4 ([]int indices, float64
	// values, 4 row pointers), vector = 8*(3+3).
	if want := int64(3 * 2 * 7); c.Flops != want {
		t.Errorf("flops = %d, want %d", c.Flops, want)
	}
	if want := int64(3 * (16*7 + 8*4)); c.MatrixBytes != want {
		t.Errorf("matrix bytes = %d, want %d", c.MatrixBytes, want)
	}
	if want := int64(3 * 8 * 6); c.VectorBytes != want {
		t.Errorf("vector bytes = %d, want %d", c.VectorBytes, want)
	}
	if c.Bytes() != c.MatrixBytes+c.VectorBytes {
		t.Error("Bytes() inconsistent")
	}
	ai := c.AI()
	if ai <= 0 || ai > 0.2 {
		t.Errorf("SpMV AI = %g, expected a small bandwidth-bound value", ai)
	}

	ResetOpCounters()
	if got := ReadOpCounters(); got != (OpCounts{}) {
		t.Errorf("reset left counters: %+v", got)
	}
	if !OpCountersEnabled() {
		t.Error("reset must not disable counting")
	}
}

func TestOpCountsEmptyAI(t *testing.T) {
	if (OpCounts{}).AI() != 0 {
		t.Error("empty AI should be 0")
	}
}
