package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

// payload unwraps a sealed entry back to the bytes the decoders read.
func payload(t testing.TB, sealed []byte) []byte {
	t.Helper()
	_, p, err := openFile(sealed)
	if err != nil {
		t.Fatalf("openFile: %v", err)
	}
	return p
}

// TestDecodeRejectsOutOfRangeColumn: a checksum-valid matrix entry whose
// column index equals Cols must be reported corrupt (and so quarantined),
// not rehydrated into a CSR whose first SpMV indexes past x.
func TestDecodeRejectsOutOfRangeColumn(t *testing.T) {
	a, _ := fixture(t)
	bad := &sparse.CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	last := bad.RowPtr[bad.Rows] - 1
	bad.ColIdx[last] = bad.Cols
	if _, _, err := decodeMatrix(payload(t, encodeMatrix(bad, []string{"bad"}))); !errors.Is(err, errCorrupt) {
		t.Fatalf("decodeMatrix accepted column index == Cols: err = %v", err)
	}
}

// FuzzDecodePayload: the payload decoders never panic on arbitrary bytes,
// and every CSR or pattern they return is structurally valid.
func FuzzDecodePayload(f *testing.F) {
	// A 3x3 grid keeps the seeds near 2 KiB: the fuzzer minimizes every
	// new interesting input, and that cost grows with the input's length.
	a := matgen.Laplace2D(3, 3)
	p, err := fsai.Compute(a, fsai.Options{Variant: fsai.VariantFull, LineBytes: 64, PatternPower: 1})
	if err != nil {
		f.Fatalf("fsai.Compute: %v", err)
	}
	seeds := [][]byte{
		payload(f, encodeMatrix(a, []string{"lap", "lap3"})),
		payload(f, encodeFactor("key", a.Fingerprint(), p, 1234)),
	}
	for _, s := range seeds {
		f.Add(s)
		for _, n := range []int{0, 1, 8, len(s) / 2, len(s) - 1} {
			f.Add(s[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, _, err := decodeMatrix(data); err == nil {
			if verr := m.Validate(); verr != nil {
				t.Fatalf("decodeMatrix returned an invalid CSR: %v", verr)
			}
		}
		fac, err := decodeFactor(data)
		if err != nil {
			return
		}
		for _, m := range []*sparse.CSR{fac.G, fac.GT} {
			if verr := m.Validate(); verr != nil {
				t.Fatalf("decodeFactor returned an invalid CSR: %v", verr)
			}
		}
		for _, pt := range []*pattern.Pattern{fac.Base, fac.Final} {
			if pt == nil {
				continue
			}
			if verr := pt.Validate(); verr != nil {
				t.Fatalf("decodeFactor returned an invalid pattern: %v", verr)
			}
		}
	})
}

// FuzzOpenFile: the envelope check never panics on arbitrary bytes, and it
// accepts exactly what sealFile writes — an accepted input re-seals to the
// same bytes.
func FuzzOpenFile(f *testing.F) {
	a := matgen.Laplace2D(3, 3)
	p, err := fsai.Compute(a, fsai.Options{Variant: fsai.VariantFull, LineBytes: 64, PatternPower: 1})
	if err != nil {
		f.Fatalf("fsai.Compute: %v", err)
	}
	for _, s := range [][]byte{encodeMatrix(a, []string{"lap", "lap3"}), encodeFactor("key", a.Fingerprint(), p, 1234)} {
		f.Add(s)
		for _, n := range []int{0, 1, headerLen, len(s) / 2, len(s) - 1} {
			f.Add(s[:n])
		}
		flipped := bytes.Clone(s)
		flipped[len(flipped)/2] ^= 1
		f.Add(flipped)
		// A nonzero pad byte under a checksum recomputed to match: intact
		// as far as the checksum can tell, yet not something sealFile
		// writes.
		padded := bytes.Clone(s)
		padded[7] = 1
		end := len(padded) - sumLen
		sum := sha256.Sum256(padded[:end])
		copy(padded[end:], sum[:])
		f.Add(padded)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := openFile(data)
		if err != nil {
			return
		}
		if resealed := sealFile(kind, payload); !bytes.Equal(resealed, data) {
			t.Fatalf("accepted envelope (kind %q, %d-byte payload) re-seals to different bytes", kind, len(payload))
		}
	})
}
