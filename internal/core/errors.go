package fsai

import (
	"errors"
	"fmt"
)

// SetupReason classifies why an FSAI setup failed. The resilience layer
// keys its recovery strategy on it: a not-SPD local system is worth a
// diagonal-shift retry, a worker panic or bad input is not retryable at
// the same rung.
type SetupReason int

const (
	// ReasonUnknown is the zero value for errors that predate the taxonomy.
	ReasonUnknown SetupReason = iota
	// ReasonBadInput: the matrix or options are malformed (non-square,
	// impossible line size, unknown variant).
	ReasonBadInput
	// ReasonNotSPD: a local Frobenius system A(S_i,S_i) was not positive
	// definite — the matrix is indefinite, corrupted, or numerically on the
	// edge. A diagonal shift A + αI often repairs it.
	ReasonNotSPD
	// ReasonMissingDiagonal: a pattern row lacks its diagonal position, so
	// the local system cannot be normalized.
	ReasonMissingDiagonal
	// ReasonWorkerPanic: a row task panicked; the pool contained it (see
	// internal/parallel) and setup surfaced it as this typed error.
	ReasonWorkerPanic
)

// String returns the stable machine-readable name of the reason.
func (r SetupReason) String() string {
	switch r {
	case ReasonUnknown:
		return "unknown"
	case ReasonBadInput:
		return "bad-input"
	case ReasonNotSPD:
		return "not-spd"
	case ReasonMissingDiagonal:
		return "missing-diagonal"
	case ReasonWorkerPanic:
		return "worker-panic"
	default:
		return fmt.Sprintf("SetupReason(%d)", int(r))
	}
}

// Retryable reports whether a diagonal-shift retry on the same variant has a
// chance of repairing the failure.
func (r SetupReason) Retryable() bool { return r == ReasonNotSPD }

// SetupError is the typed failure of an FSAI-family setup.
type SetupError struct {
	// Reason classifies the failure.
	Reason SetupReason
	// Row is the offending matrix row when known, -1 otherwise.
	Row int
	// Err is the underlying cause.
	Err error
}

func (e *SetupError) Error() string {
	if e.Row >= 0 {
		return fmt.Sprintf("fsai: setup failed (%s) at row %d: %v", e.Reason, e.Row, e.Err)
	}
	return fmt.Sprintf("fsai: setup failed (%s): %v", e.Reason, e.Err)
}

func (e *SetupError) Unwrap() error { return e.Err }

// AsSetupError unwraps err to a *SetupError when one is in the chain.
func AsSetupError(err error) (*SetupError, bool) {
	var se *SetupError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// setupErr builds a SetupError wrapping cause.
func setupErr(reason SetupReason, row int, cause error) *SetupError {
	return &SetupError{Reason: reason, Row: row, Err: cause}
}

// setupErrf builds a SetupError with a formatted cause.
func setupErrf(reason SetupReason, row int, format string, args ...any) *SetupError {
	return &SetupError{Reason: reason, Row: row, Err: fmt.Errorf(format, args...)}
}
