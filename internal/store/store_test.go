package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// fixture computes one matrix + factor pair for persistence tests.
func fixture(t *testing.T) (*sparse.CSR, *fsai.Preconditioner) {
	t.Helper()
	a := matgen.Laplace2D(8, 8)
	p, err := fsai.Compute(a, fsai.Options{Variant: fsai.VariantFull, LineBytes: 64, PatternPower: 1})
	if err != nil {
		t.Fatalf("fsai.Compute: %v", err)
	}
	return a, p
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func sameCSR(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] || a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	return true
}

// csrSHA hashes a CSR's row pointers, column indices and the exact bits of
// its values.
func csrSHA(m *sparse.CSR) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range m.RowPtr {
		put(uint64(v))
	}
	for _, v := range m.ColIdx {
		put(uint64(v))
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRoundTripSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()
	key := fp + "|fsaie|f=0|line=64|pow=1|tau=0"

	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), "lap8"); err != nil {
		t.Fatalf("PutMatrix: %v", err)
	}
	if err := s.PutFactor(key, fp, p, 12345); err != nil {
		t.Fatalf("PutFactor: %v", err)
	}
	st := s.Stats()
	if st.Matrices != 1 || st.Factors != 1 || st.Bytes <= 0 {
		t.Fatalf("stats after put = %+v", st)
	}

	s2 := openStore(t, dir)
	ms, fs := s2.DrainRecovered()
	if len(ms) != 1 || len(fs) != 1 {
		t.Fatalf("recovered %d matrices, %d factors; want 1, 1", len(ms), len(fs))
	}
	if !slices.Equal(ms[0].Names, []string{"lap8"}) || ms[0].A.Fingerprint() != fp {
		t.Fatalf("recovered matrix names=%q fp=%s", ms[0].Names, ms[0].A.Fingerprint())
	}
	f := fs[0]
	if f.Key != key || f.Fingerprint != fp || f.SetupNS != 12345 {
		t.Fatalf("recovered factor meta = %+v", f)
	}
	// Bit-identical factors are the whole point: a warm solve after restart
	// must reproduce the original arithmetic exactly.
	if !sameCSR(f.G, p.G) {
		t.Fatal("recovered factor is not bit-identical to the computed one")
	}
	if f.Base == nil || f.Base.NNZ() != p.BasePattern.NNZ() {
		t.Fatal("recovered base pattern does not match")
	}
	if f.Stats.Rows != p.Stats.Rows || f.Stats.DirectFlops != p.Stats.DirectFlops {
		t.Fatalf("recovered stats = %+v, want %+v", f.Stats, p.Stats)
	}
	// Rehydration path used by the service: the reconstructed preconditioner
	// must Apply without the original in-process state.
	re := fsai.FromFactors(f.G, f.Base, f.Stats, 1)
	z1 := make([]float64, a.Rows)
	z2 := make([]float64, a.Rows)
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	p.Apply(z1, r)
	re.Apply(z2, r)
	for i := range z1 {
		if z1[i] != z2[i] {
			t.Fatalf("Apply mismatch at %d: %g vs %g", i, z1[i], z2[i])
		}
	}
	// Second drain hands back nothing.
	if m2, f2 := s2.DrainRecovered(); len(m2) != 0 || len(f2) != 0 {
		t.Fatal("DrainRecovered is not one-shot")
	}
}

func TestDeleteRemovesDiskEntries(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()
	key := fp + "|fsai"

	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFactor(key, fp, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteFactor(key); err != nil {
		t.Fatalf("DeleteFactor: %v", err)
	}
	if err := s.DeleteMatrix(fp); err != nil {
		t.Fatalf("DeleteMatrix: %v", err)
	}
	for _, sub := range []string{matrixDir, factorDir} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s still holds %d files after delete", sub, len(entries))
		}
	}

	s2 := openStore(t, dir)
	if ms, fs := s2.DrainRecovered(); len(ms) != 0 || len(fs) != 0 {
		t.Fatalf("deleted entries came back: %d matrices, %d factors", len(ms), len(fs))
	}
}

// TestStoreCountsEntryOperations: store_writes_total, store_deletes_total
// and store_errors_total count entry writes, deletions and failed writes.
func TestStoreCountsEntryOperations(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()
	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFactor(fp+"|a", fp, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteFactor(fp + "|a"); err != nil {
		t.Fatal(err)
	}
	// With its directory gone, the next factor write fails and is counted.
	if err := os.RemoveAll(filepath.Join(dir, factorDir)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFactor(fp+"|b", fp, p, 0); err == nil {
		t.Fatal("PutFactor into a missing directory succeeded")
	}
	for name, want := range map[string]int64{"store.writes_total": 2, "store.deletes_total": 1, "store.errors_total": 1} {
		if got := s.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// corruptOneFile flips one byte of the single file in dir/sub.
func corruptOneFile(t *testing.T, dir, sub string, mutate func([]byte) []byte) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, sub))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected exactly one file in %s (err=%v, n=%d)", sub, err, len(entries))
	}
	path := filepath.Join(dir, sub, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return entries[0].Name()
}

func TestBitFlippedFactorIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()

	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFactor(fp+"|k", fp, p, 0); err != nil {
		t.Fatal(err)
	}

	name := corruptOneFile(t, dir, factorDir, func(b []byte) []byte {
		b[len(b)/2] ^= 0x10
		return b
	})

	s2 := openStore(t, dir)
	ms, fs := s2.DrainRecovered()
	if len(ms) != 1 {
		t.Fatalf("matrix should survive a factor corruption, got %d", len(ms))
	}
	if len(fs) != 0 {
		t.Fatal("bit-flipped factor was not dropped")
	}
	if got := s2.Stats().Corrupt; got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
}

func TestTruncatedMatrixIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t)

	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
		t.Fatal(err)
	}

	corruptOneFile(t, dir, matrixDir, func(b []byte) []byte { return b[:len(b)/3] })

	s2 := openStore(t, dir)
	ms, _ := s2.DrainRecovered()
	if len(ms) != 0 {
		t.Fatal("truncated matrix entry was not dropped")
	}
	if got := s2.Stats().Corrupt; got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
}

// TestCorruptCountedWithoutRegistry: a store opened without a metrics
// registry still counts what it quarantines; Stats reads the count from a
// private registry.
func TestCorruptCountedWithoutRegistry(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t)
	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
		t.Fatal(err)
	}
	corruptOneFile(t, dir, matrixDir, func(b []byte) []byte { return b[:len(b)/3] })

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open without a registry: %v", err)
	}
	if got := s2.Stats().Corrupt; got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
}

func TestFactorWithoutMatrixIsDropped(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()

	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFactor(fp+"|k", fp, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteMatrix(fp); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	ms, fs := s2.DrainRecovered()
	if len(ms) != 0 || len(fs) != 0 {
		t.Fatalf("orphaned factor survived: %d matrices, %d factors", len(ms), len(fs))
	}
	// Dangling factors are dropped, not quarantined: nothing was corrupt.
	if got := s2.Stats().Corrupt; got != 0 {
		t.Fatalf("corrupt counter = %d, want 0", got)
	}
}

func TestOrphanFilesAndTempFilesAreSwept(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t)

	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, factorDir, "deadbeef.bin")
	tmp := filepath.Join(dir, matrixDir, "half.bin.tmp")
	for _, p := range []string{orphan, tmp} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openStore(t, dir)
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s not swept (err=%v)", p, err)
		}
	}
	// A temp file is an interrupted write and goes; a stray file in an
	// entry directory is kept as evidence, like any file that fails
	// verification.
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "deadbeef.bin")); err != nil {
		t.Fatalf("stray file not quarantined: %v", err)
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Matrices != 1 {
		t.Fatalf("stats = %+v, want 1 matrix and 1 corrupt", st)
	}
}

func TestInjectedShortWriteAndBitFlipAreCaughtOnRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(in *faultinject.Injector)
		site string
	}{
		{"short-write", func(in *faultinject.Injector) { in.WithShortWrite(0.5, 1) }, faultinject.SiteShortWrite},
		{"bit-flip", func(in *faultinject.Injector) { in.WithBitFlip(1) }, faultinject.SiteBitFlip},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a, p := fixture(t)
			fp := a.Fingerprint()

			s := openStore(t, dir)
			if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
				t.Fatal(err)
			}
			in := faultinject.New(7)
			tc.arm(in)
			restore := faultinject.Activate(in)
			err := s.PutFactor(fp+"|k", fp, p, 0)
			restore()
			if err != nil {
				t.Fatalf("PutFactor under %s: %v", tc.name, err)
			}
			events := in.Events()
			if len(events) != 1 || events[0].Site != tc.site {
				t.Fatalf("events = %v, want one %s", events, tc.site)
			}

			s2 := openStore(t, dir)
			ms, fs := s2.DrainRecovered()
			if len(ms) != 1 || len(fs) != 0 {
				t.Fatalf("recovered %d matrices, %d factors; corrupted factor must be dropped", len(ms), len(fs))
			}
			if got := s2.Stats().Corrupt; got != 1 {
				t.Fatalf("corrupt counter = %d, want 1", got)
			}
		})
	}
}

func TestPutMatrixIsIdempotentByFingerprint(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t)

	s := openStore(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, matrixDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("re-putting one matrix produced %d files", len(entries))
	}
	if st := s.Stats(); st.Matrices != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEntryCopiedUnderAnotherNameIsQuarantined: a valid factor file at an
// address its key does not hash to passes every checksum, so the address
// check is what stops it; the original entry still recovers.
func TestEntryCopiedUnderAnotherNameIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()
	key := fp + "|k"

	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), "m"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFactor(key, fp, p, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, factorFile(key)))
	if err != nil {
		t.Fatal(err)
	}
	copied := factorFile(fp + "|other")
	if err := os.WriteFile(filepath.Join(dir, copied), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	ms, fs := s2.DrainRecovered()
	if len(ms) != 1 || len(fs) != 1 || fs[0].Key != key {
		t.Fatalf("recovered %d matrices, %d factors; want the original factor only", len(ms), len(fs))
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Factors != 1 {
		t.Fatalf("stats = %+v, want 1 factor and 1 corrupt", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, filepath.Base(copied))); err != nil {
		t.Fatalf("copied entry not quarantined: %v", err)
	}
}

// TestVersion1EnvelopeIsQuarantined: an entry of the previous format (one
// alias string, no alias list) is reported as an unknown version and
// quarantined, never misread as the current layout.
func TestVersion1EnvelopeIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t)
	old := seal(kindMatrix, func(e *enc) {
		e.str("m")
		e.csr(a)
	})
	binary.LittleEndian.PutUint16(old[4:], 1)
	end := len(old) - sumLen
	sum := sha256.Sum256(old[:end])
	copy(old[end:], sum[:])
	if err := os.MkdirAll(filepath.Join(dir, matrixDir), 0o755); err != nil {
		t.Fatal(err)
	}
	rel := matrixFile(a.Fingerprint())
	if err := os.WriteFile(filepath.Join(dir, rel), old, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	s, err := Open(dir, Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	if ms, _ := s.DrainRecovered(); len(ms) != 0 {
		t.Fatal("version-1 matrix entry was recovered")
	}
	if got := s.Stats().Corrupt; got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if !strings.Contains(logs.String(), "unknown version 1") {
		t.Fatalf("quarantine log does not name the version:\n%s", logs.String())
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, filepath.Base(rel))); err != nil {
		t.Fatalf("version-1 entry not quarantined: %v", err)
	}
}

// TestFailedUnlinkIsReturnedAndCounted: a delete whose unlink fails returns
// the error, counts store_errors_total and no deletion, and keeps the entry
// indexed, as it is still on disk. A non-empty directory at the entry's path
// makes the unlink fail even for root.
func TestFailedUnlinkIsReturnedAndCounted(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()
	key := fp + "|k"
	s := openStore(t, dir)
	if err := s.PutMatrix(a, a.Fingerprint(), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFactor(key, fp, p, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, factorFile(key))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteFactor(key); err == nil {
		t.Fatal("DeleteFactor over a non-empty directory succeeded")
	}
	for name, want := range map[string]int64{"store.errors_total": 1, "store.deletes_total": 0} {
		if got := s.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if st := s.Stats(); st.Factors != 1 {
		t.Fatalf("stats = %+v, want the factor still indexed", st)
	}
	if got := s.reg.Gauge(`store.entries{kind="factor"}`).Value(); got != 1 {
		t.Fatalf(`store_entries{kind="factor"} = %g, want 1`, got)
	}
}

// TestAliasesSurviveReopen: every alias put reaches the entry file once, in
// registration order, and a reopened store reads back the same aliases and
// byte count.
func TestAliasesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t)
	s := openStore(t, dir)
	for _, name := range []string{"", "a", "b", "a"} {
		if err := s.PutMatrix(a, a.Fingerprint(), name); err != nil {
			t.Fatal(err)
		}
	}
	// The unnamed put writes the entry, each new alias rewrites it, and a
	// known alias is a no-op.
	if got := s.reg.Counter("store.writes_total").Value(); got != 3 {
		t.Fatalf("store_writes_total = %d, want 3", got)
	}
	want := s.Stats()

	s2 := openStore(t, dir)
	ms, _ := s2.DrainRecovered()
	if len(ms) != 1 || !slices.Equal(ms[0].Names, []string{"a", "b"}) {
		t.Fatalf("recovered %+v, want one matrix named [a b]", ms)
	}
	if got := s2.Stats(); got.Bytes != want.Bytes || got.Matrices != 1 {
		t.Fatalf("stats after reopen = %+v, want %+v", got, want)
	}
}

// TestFactorGTEntryIsDropped: an intact factor entry of the retired kind,
// which also held Gᵀ and the final pattern, is deleted at Open with a log
// line, like a factor whose matrix is gone: not quarantined, not counted
// corrupt. The matrix and its aliases recover.
func TestFactorGTEntryIsDropped(t *testing.T) {
	dir := t.TempDir()
	a, p := fixture(t)
	fp := a.Fingerprint()
	key := fp + "|fsaie"
	s := openStore(t, dir)
	for _, name := range []string{"lap", "lap2"} {
		if err := s.PutMatrix(a, fp, name); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := json.Marshal(p.Stats)
	if err != nil {
		t.Fatal(err)
	}
	old := seal(kindFactorGT, func(e *enc) {
		e.str(key)
		e.str(fp)
		e.i64(1234)
		e.str(string(stats))
		e.csr(p.G)
		e.csr(p.GT)
		e.pat(p.BasePattern)
		e.pat(p.FinalPattern)
	})
	rel := factorFile(key)
	if err := os.WriteFile(filepath.Join(dir, rel), old, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	reg := telemetry.NewRegistry()
	s2, err := Open(dir, Options{Metrics: reg, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ms, fs := s2.DrainRecovered()
	if len(ms) != 1 || !slices.Equal(ms[0].Names, []string{"lap", "lap2"}) || len(fs) != 0 {
		t.Fatalf("recovered %d matrices (%+v), %d factors; want the matrix named [lap lap2] and no factor", len(ms), ms, len(fs))
	}
	if st := s2.Stats(); st.Corrupt != 0 || st.Factors != 0 || st.Bytes != s.Stats().Bytes {
		t.Fatalf("stats = %+v, want no factor, nothing corrupt and the matrix's %d bytes", st, s.Stats().Bytes)
	}
	if !strings.Contains(logs.String(), "retired layout") {
		t.Fatalf("no log line names the dropped entry:\n%s", logs.String())
	}
	for _, path := range []string{rel, filepath.Join(quarantineDir, filepath.Base(rel))} {
		if _, err := os.Stat(filepath.Join(dir, path)); !os.IsNotExist(err) {
			t.Fatalf("%s still exists (err=%v)", path, err)
		}
	}
}
