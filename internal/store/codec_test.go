package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/matgen"
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
		if verr := fac.G.Validate(); verr != nil {
			t.Fatalf("decodeFactor returned an invalid CSR: %v", verr)
		}
		if fac.Base != nil {
			if verr := fac.Base.Validate(); verr != nil {
				t.Fatalf("decodeFactor returned an invalid pattern: %v", verr)
			}
		}
	})
}

// FuzzOpenFile: the envelope check never panics on arbitrary bytes, and it
// accepts exactly what seal writes — an accepted input re-seals to the
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
		// as far as the checksum can tell, yet not something seal writes.
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
		resealed := seal(kind, func(e *enc) { e.raw(string(payload)) })
		if !bytes.Equal(resealed, data) {
			t.Fatalf("accepted envelope (kind %q, %d-byte payload) re-seals to different bytes", kind, len(payload))
		}
	})
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops pooled objects at random: json.Marshal's allocation
// count then varies from run to run.
var raceEnabled bool

// defaultFactor is lap64x64 with the factor fsai.DefaultOptions builds.
func defaultFactor(tb testing.TB) (*sparse.CSR, *fsai.Preconditioner) {
	tb.Helper()
	spec, ok := matgen.ByName("lap64x64")
	if !ok {
		tb.Fatal("matgen spec lap64x64 missing")
	}
	a := spec.Generate()
	p, err := fsai.Compute(a, fsai.DefaultOptions())
	if err != nil {
		tb.Fatalf("fsai.Compute: %v", err)
	}
	return a, p
}

// TestEncodeMatrixBytesUnchanged: matrix entries keep their exact bytes.
// The hashes were recorded from the encoder that appended field by field
// and copied the payload into the envelope.
func TestEncodeMatrixBytesUnchanged(t *testing.T) {
	for _, c := range []struct {
		spec  string
		names []string
		size  int
		sha   string
	}{
		{"lap64x64", []string{"lap", "lap2"}, 356479, "78ff7c58742f942826581f012119675dd2f1ba3430f0d3905f9dc6e2f52625d3"},
		{"jump64x64-b8-j1e3", []string{"jump"}, 356468, "fc08a58bb7ffb62ef8f500b0109f70245d360625873d47f11e547a1528234abf"},
	} {
		spec, ok := matgen.ByName(c.spec)
		if !ok {
			t.Fatalf("matgen spec %q missing", c.spec)
		}
		data := encodeMatrix(spec.Generate(), c.names)
		if sum := sha256.Sum256(data); len(data) != c.size || hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("%s: entry of %d bytes, sha256 %x; want %d bytes, %s", c.spec, len(data), sum, c.size, c.sha)
		}
	}
}

// TestEncodeIsOnePresizedBuffer: an entry is one allocation of exactly its
// size (len == cap), so a growth copy shows as an extra allocation, and
// lap64x64's default factor entry holds G and the base pattern only.
func TestEncodeIsOnePresizedBuffer(t *testing.T) {
	a, p := defaultFactor(t)
	fp := a.Fingerprint()
	names := []string{"lap", "lap2"}
	for _, c := range []struct {
		name   string
		encode func() []byte
		allocs float64
	}{
		// The entry and the enc that seal hands to the payload writer: an
		// indirect call, so it escapes.
		{"matrix", func() []byte { return encodeMatrix(a, names) }, 2},
		// Those two, the stats JSON's string copy and json.Marshal's 3–4.
		{"factor", func() []byte { return encodeFactor("key", fp, p, 1) }, 7},
	} {
		if data := c.encode(); len(data) != cap(data) {
			t.Errorf("%s entry: len %d, cap %d", c.name, len(data), cap(data))
		}
		if c.name == "factor" && raceEnabled {
			continue // json.Marshal's count is not fixed under -race
		}
		if got := testing.AllocsPerRun(10, func() { c.encode() }); got > c.allocs {
			t.Errorf("%s entry: %v allocations per encode, want at most %v", c.name, got, c.allocs)
		}
	}
	// The entry that also held Gᵀ and the final pattern was 1,816,513 bytes.
	if n := len(encodeFactor("key", fp, p, 1)); n > 1816513*45/100 {
		t.Errorf("lap64x64 default factor entry is %d bytes, want at most %d", n, 1816513*45/100)
	}
}

// TestRestoredFactorEqualsComputed: a factor written through the store and
// recovered at Open rebuilds, through fsai.FromFactors, exactly the
// preconditioner that was computed — G and Gᵀ bit for bit, the base and
// final structure and the stats — for every FSAI-family name and the
// StandardFiltering path, at 1 and 2 workers. Its final pattern is a view
// of G's arrays, as the computed one is.
func TestRestoredFactorEqualsComputed(t *testing.T) {
	spec, ok := matgen.ByName("elas28x28-s100")
	if !ok {
		t.Fatal("matgen spec elas28x28-s100 missing")
	}
	a := spec.Generate()
	fp := a.Fingerprint()
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.PutMatrix(a, fp, "elas"); err != nil {
		t.Fatal(err)
	}
	computed := map[string]*fsai.Preconditioner{}
	for _, name := range []string{"fsai", "fsaie-sp", "fsaie", "adaptive", "standard-filtering"} {
		for _, w := range []int{1, 2} {
			o := fsai.DefaultOptions()
			o.Workers = w
			var p *fsai.Preconditioner
			var err error
			if name == "standard-filtering" {
				o.StandardFiltering = true
				p, err = fsai.Compute(a, o)
			} else {
				p, err = fsai.ComputeNamed(name, a, o)
			}
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, w, err)
			}
			key := fmt.Sprintf("%s|%s|w=%d", fp, name, w)
			if err := s.PutFactor(key, fp, p, 1); err != nil {
				t.Fatal(err)
			}
			computed[key] = p
		}
	}
	_, recovered := openStore(t, dir).DrainRecovered()
	if len(recovered) != len(computed) {
		t.Fatalf("recovered %d factors, want %d", len(recovered), len(computed))
	}
	sharesArrays := func(p *fsai.Preconditioner) bool {
		return &p.FinalPattern.RowPtr[0] == &p.G.RowPtr[0] && &p.FinalPattern.Cols[0] == &p.G.ColIdx[0]
	}
	for _, f := range recovered {
		want := computed[f.Key]
		got := fsai.FromFactors(f.G, f.Base, f.Stats, 0)
		if csrSHA(got.G) != csrSHA(want.G) || csrSHA(got.GT) != csrSHA(want.GT) {
			t.Errorf("%s: restored G or Gᵀ differs from the computed one", f.Key)
		}
		if !got.BasePattern.Equal(want.BasePattern) || !got.FinalPattern.Equal(want.FinalPattern) {
			t.Errorf("%s: restored base or final pattern differs from the computed one", f.Key)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: restored stats %+v, want %+v", f.Key, got.Stats, want.Stats)
		}
		if !sharesArrays(got) || !sharesArrays(want) {
			t.Errorf("%s: a final pattern does not share its G's arrays", f.Key)
		}
	}
}

// BenchmarkEncodeFactor encodes lap64x64's factor at fsai.DefaultOptions:
// with -benchmem a growth copy of the entry shows as extra allocs/op.
func BenchmarkEncodeFactor(b *testing.B) {
	a, p := defaultFactor(b)
	fp := a.Fingerprint()
	b.SetBytes(int64(len(encodeFactor("key", fp, p, 1))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entrySink = encodeFactor("key", fp, p, 1)
	}
}

var entrySink []byte
