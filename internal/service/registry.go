package service

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/sparse"
)

// ErrRegistryFull is returned by Register when the registry holds its
// maximum number of distinct matrices. Clients must unregister something
// (DELETE /api/v1/matrices/<ref>) before registering more — the daemon
// never grows without bound on untrusted input.
var ErrRegistryFull = errors.New("service: matrix registry full")

// RegisteredMatrix is one registry entry: the immutable operator plus its
// descriptor. The CSR is shared by every job solving on it and must never
// be mutated; a new alias replaces the entry with a copy, so a reader
// holding one may use it without the lock.
type RegisteredMatrix struct {
	Info MatrixInfo
	A    *sparse.CSR
}

// MatrixRegistry is the content-addressed matrix store. Registration
// deduplicates by fingerprint: uploading the same bytes twice yields the
// same handle and keeps one copy. All methods are safe for concurrent use.
type MatrixRegistry struct {
	mu    sync.RWMutex
	cap   int
	byFP  map[string]*RegisteredMatrix
	names map[string]string // alias -> fingerprint
}

// NewMatrixRegistry returns an empty registry holding at most capacity
// distinct matrices (capacity < 1 is treated as 1).
func NewMatrixRegistry(capacity int) *MatrixRegistry {
	if capacity < 1 {
		capacity = 1
	}
	return &MatrixRegistry{
		cap:   capacity,
		byFP:  map[string]*RegisteredMatrix{},
		names: map[string]string{},
	}
}

// Register stores a (validated as square-symmetric by the caller) matrix
// under its content fingerprint fp (a.Fingerprint(), which the caller has
// already computed), optionally aliased by name. Registering
// already-present content is a cheap no-op returning Created=false; a name
// that already aliases different content is an error.
func (r *MatrixRegistry) Register(a *sparse.CSR, fp, name string) (MatrixInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner, taken := r.names[name]
	if taken && owner != fp {
		return MatrixInfo{}, NameTaken(name)
	}
	rm, ok := r.byFP[fp]
	if !ok {
		if len(r.byFP) >= r.cap {
			return MatrixInfo{}, ErrRegistryFull
		}
		rm = &RegisteredMatrix{Info: MatrixInfo{Fingerprint: fp, Rows: a.Rows, NNZ: a.NNZ()}, A: a}
	}
	if name != "" && !taken {
		cp := *rm
		cp.Info.Aliases = append(slices.Clip(rm.Info.Aliases), name)
		cp.Info.Name = cp.Info.Aliases[0]
		rm = &cp
		r.names[name] = fp
	}
	r.byFP[fp] = rm
	info := rm.Info
	info.Created = !ok
	return info, nil
}

// NameTaken is the error registering name gets when name already aliases
// another matrix: the daemon's 409, which the cluster router answers with
// the same text.
func NameTaken(name string) error {
	return fmt.Errorf("service: name %q already registered to another matrix", name)
}

// resolve finds the matrix a reference names: a fingerprint first, then a
// name. Get and Remove share it, so a DELETE removes exactly the matrix a
// GET on the same reference returns. The caller holds r.mu.
func (r *MatrixRegistry) resolve(ref string) *RegisteredMatrix {
	if rm, ok := r.byFP[ref]; ok {
		return rm
	}
	return r.byFP[r.names[ref]]
}

// Get resolves a matrix by fingerprint or name.
func (r *MatrixRegistry) Get(ref string) (*RegisteredMatrix, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rm := r.resolve(ref)
	return rm, rm != nil
}

// Remove unregisters a matrix by fingerprint or name, returning its
// fingerprint and whether anything was removed. Cached preconditioners are
// the cache's business: the server pairs Remove with PrecondCache.
// EvictMatrix.
func (r *MatrixRegistry) Remove(ref string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rm := r.resolve(ref)
	if rm == nil {
		return "", false
	}
	fp := rm.Info.Fingerprint
	delete(r.byFP, fp)
	for _, alias := range rm.Info.Aliases {
		delete(r.names, alias)
	}
	return fp, true
}

// List returns the registered matrices in fingerprint order: the same
// order after a restart, and the order of the cluster router's merged
// listing.
func (r *MatrixRegistry) List() []MatrixInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MatrixInfo, 0, len(r.byFP))
	for _, rm := range r.byFP {
		out = append(out, rm.Info)
	}
	slices.SortFunc(out, func(a, b MatrixInfo) int { return strings.Compare(a.Fingerprint, b.Fingerprint) })
	return out
}

// Len returns the number of registered matrices.
func (r *MatrixRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byFP)
}
