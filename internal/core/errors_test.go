package fsai

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/matgen"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

func TestSetupReasonNames(t *testing.T) {
	cases := map[SetupReason]string{
		ReasonUnknown:         "unknown",
		ReasonBadInput:        "bad-input",
		ReasonNotSPD:          "not-spd",
		ReasonMissingDiagonal: "missing-diagonal",
		ReasonWorkerPanic:     "worker-panic",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String()=%q want %q", int(r), r.String(), want)
		}
	}
	for r := range cases {
		if got, want := r.Retryable(), r == ReasonNotSPD; got != want {
			t.Errorf("%v.Retryable()=%v want %v", r, got, want)
		}
	}
}

func TestSetupErrorBadInput(t *testing.T) {
	b := sparse.NewCOO(3, 4, 1)
	b.Add(0, 0, 1)
	_, err := Compute(b.ToCSR(), DefaultOptions())
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonBadInput {
		t.Fatalf("non-square matrix: err=%v", err)
	}
}

func TestSetupErrorNotSPD(t *testing.T) {
	a := laplace1D(20)
	// Flip one diagonal entry negative: the local Frobenius systems touching
	// it stop being positive definite.
	for k := a.RowPtr[7]; k < a.RowPtr[8]; k++ {
		if a.ColIdx[k] == 7 {
			a.Val[k] = -3
		}
	}
	opts := DefaultOptions()
	opts.Variant = VariantFSAI
	_, err := Compute(a, opts)
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonNotSPD {
		t.Fatalf("indefinite matrix: err=%v", err)
	}
	if !errors.Is(err, ErrNotSPD) {
		t.Errorf("SetupError should still wrap ErrNotSPD")
	}
	if !se.Reason.Retryable() {
		t.Errorf("not-spd must be retryable (diagonal shift)")
	}
	if se.Row < 0 {
		t.Errorf("not-spd should attribute the offending row, got %d", se.Row)
	}
	if !strings.Contains(se.Error(), "not-spd") {
		t.Errorf("error text lacks the reason: %q", se.Error())
	}
}

func TestSetupErrorMissingDiagonal(t *testing.T) {
	a := laplace1D(4)
	p := pattern.New(4, 4)
	for i := 0; i < 4; i++ {
		if i != 2 { // row 2 lacks its diagonal
			p.AppendCol(i)
		}
		p.CloseRow(i)
	}
	_, err := ComputeOnPattern(a, p, 1, nil)
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonMissingDiagonal || se.Row != 2 {
		t.Fatalf("missing diagonal: err=%v", err)
	}
}

func TestSetupErrorWorkerPanic(t *testing.T) {
	a := laplace1D(8)
	// An out-of-range column index makes the row task panic inside the pool;
	// the pool contains it and setup reports a typed worker-panic error.
	p := pattern.New(8, 8)
	for i := 0; i < 8; i++ {
		if i == 5 {
			p.AppendCol(-1)
		}
		p.AppendCol(i)
		p.CloseRow(i)
	}
	_, err := ComputeOnPattern(a, p, 2, nil)
	checkWorkerPanic(t, err)

	// Every setup phase runs on the same contained pool: a chunk that
	// panics anywhere (here the first chunk of any setup loop, which is the
	// base-pattern build) also comes back typed.
	var once sync.Once
	parallel.SetWorkerHook(func(int) { once.Do(func() { panic("injected") }) })
	defer parallel.SetWorkerHook(nil)
	opts := DefaultOptions()
	opts.Variant = VariantFull
	_, err = Compute(matgen.Laplace2D(20, 20), opts)
	checkWorkerPanic(t, err)
}

func checkWorkerPanic(t *testing.T, err error) {
	t.Helper()
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonWorkerPanic {
		t.Fatalf("worker panic: err=%v", err)
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("worker-panic SetupError should wrap *parallel.PanicError, got %v", err)
	}
}
