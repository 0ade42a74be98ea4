// Package store is the fsaid daemon's crash-safe persistence layer: the
// durable half of the service's registry and preconditioner cache. The
// paper's whole economics rest on amortizing the expensive FSAI(E) setup
// across repeated solves; without durability one crash or deploy discards
// every factorization and the next solve pays full setup again. With a
// store attached (fsaid -data-dir), registered matrices and computed
// factors survive restarts bit-identically, so the first solve after
// recovery is a warm cache hit.
//
// On-disk layout under the data directory:
//
//	matrices/*.bin   one sealed entry per registered matrix: its aliases and
//	                 operator, named by the hash of its content fingerprint
//	factors/*.bin    one sealed entry per cached preconditioner factor (G,
//	                 its base pattern and setup stats), named by the hash
//	                 of its cache key
//	quarantine/      files that failed verification at recovery, never deleted
//
// The entry files are the store: each is self-describing and checksummed,
// and no other record names them. A write goes to a temp name, is fsynced,
// renamed over the entry's address and made durable with a directory
// fsync; a delete is an unlink followed by a directory fsync. Recovery
// lists matrices/ and factors/ and verifies every file — envelope, SHA-256,
// kind, decode, structure, and that the file sits at the address its own
// content hashes to — and QUARANTINES whatever fails (a corrupt entry, a
// stray file, a file of an older format version) instead of failing
// startup: losing one factor costs one recomputation; refusing to start
// costs the whole cache. An intact factor entry of the retired kind that
// also held Gᵀ is deleted, not quarantined, like a factor whose matrix is
// gone.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	fsai "repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/pattern"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

const (
	matrixDir     = "matrices"
	factorDir     = "factors"
	quarantineDir = "quarantine"
)

// Options configures a Store. Both fields are optional: a nil registry
// gets a private one (Stats reads its store_corrupt_total), a nil logger
// discards.
type Options struct {
	Metrics *telemetry.Registry
	Logger  *slog.Logger
}

// RecoveredMatrix is a verified matrix entry rehydrated at Open.
type RecoveredMatrix struct {
	A *sparse.CSR
	// Fingerprint is A's content fingerprint, verified against the entry's
	// address.
	Fingerprint string
	// Names are the matrix's aliases in registration order.
	Names []string
}

// RecoveredFactor is a verified preconditioner factor rehydrated at Open:
// G, the base pattern and the stats exactly as persisted. The entry holds
// neither Gᵀ nor the final pattern; fsai.FromFactors rebuilds both from G
// (the final pattern is G's structure) along with the Apply scratch.
type RecoveredFactor struct {
	Key         string
	Fingerprint string
	SetupNS     int64
	G           *sparse.CSR
	Base        *pattern.Pattern
	Stats       fsai.SetupStats
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Matrices int   `json:"matrices"`
	Factors  int   `json:"factors"`
	Bytes    int64 `json:"bytes"`
	// Corrupt counts files quarantined at Open: the store_corrupt_total
	// counter.
	Corrupt int64 `json:"corrupt"`
}

// matrixEntry and factorEntry index the entry files in memory: what Stats,
// the puts and the deletes need without reading the disk. An entry's file
// name follows from its fingerprint or key (matrixFile, factorFile).
type matrixEntry struct {
	names []string // aliases in registration order
	size  int64    // entry file bytes
}

type factorEntry struct {
	fingerprint string
	size        int64
}

// Store is the disk-backed persistence layer. All methods are safe for
// concurrent use; the write path (register, cold-solve factor persist,
// delete) serializes on one mutex — it is far off the solve hot path.
type Store struct {
	dir string
	reg *telemetry.Registry
	log *slog.Logger

	mu       sync.Mutex
	matrices map[string]matrixEntry // by fingerprint
	factors  map[string]factorEntry // by cache key
	bytes    int64

	corrupt *telemetry.Counter

	recMatrices []RecoveredMatrix
	recFactors  []RecoveredFactor
}

// Open attaches to (creating if needed) the data directory, verifies every
// entry file in it and quarantines what fails. It returns an error only
// when the directory itself is unusable — corrupt entries degrade to an
// emptier store, they never fail startup.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	for _, d := range []string{dir, filepath.Join(dir, matrixDir), filepath.Join(dir, factorDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	logger := opt.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := opt.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Store{
		dir:      dir,
		reg:      reg,
		log:      logger,
		matrices: map[string]matrixEntry{},
		factors:  map[string]factorEntry{},
	}
	s.reg.SetHelp("store_entries", "durable store entries by kind (matrix, factor)")
	s.reg.SetHelp("store_bytes", "bytes of verified durable store entries")
	s.reg.SetHelp("store_corrupt_total", "files quarantined at recovery: entries failing verification (checksum, truncation, format version, address) and stray files")
	s.reg.SetHelp("store_writes_total", "durable store entry writes")
	s.reg.SetHelp("store_deletes_total", "durable store entry deletions (unlinks that succeeded)")
	s.reg.SetHelp("store_errors_total", "store entry writes and unlinks that failed")
	// Touch the zero counters so every family renders on /metrics from the
	// first scrape, not only after its first event.
	s.corrupt = s.reg.Counter("store.corrupt_total")
	s.reg.Counter("store.writes_total")
	s.reg.Counter("store.deletes_total")
	s.reg.Counter("store.errors_total")

	s.removeTempFiles()
	s.recover()
	s.publishGauges()
	s.log.Info("store recovered",
		"dir", dir, "matrices", len(s.matrices), "factors", len(s.factors),
		"quarantined", s.corrupt.Value(), "bytes", s.bytes)
	return s, nil
}

// Dir returns the data directory root.
func (s *Store) Dir() string { return s.dir }

// DrainRecovered hands over (and releases) the entries verified at Open.
// The service calls it once to rehydrate its registry and cache.
func (s *Store) DrainRecovered() ([]RecoveredMatrix, []RecoveredFactor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, f := s.recMatrices, s.recFactors
	s.recMatrices, s.recFactors = nil, nil
	return m, f
}

// Stats summarizes the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Matrices: len(s.matrices),
		Factors:  len(s.factors),
		Bytes:    s.bytes,
		Corrupt:  s.corrupt.Value(),
	}
}

// PutMatrix persists a registered matrix, whose fingerprint fp the caller
// has computed, under alias name ("" for none). The entry file is
// content-addressed by fingerprint and holds every alias in registration
// order: re-putting known content is a no-op unless name is a new alias,
// which atomically rewrites the entry.
func (s *Store) PutMatrix(a *sparse.CSR, fp, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	me, ok := s.matrices[fp]
	if ok && (name == "" || slices.Contains(me.names, name)) {
		return nil
	}
	names := slices.Clip(me.names)
	if name != "" {
		names = append(names, name)
	}
	data := encodeMatrix(a, names)
	if err := s.writeEntryLocked(matrixFile(fp), data); err != nil {
		return err
	}
	s.matrices[fp] = matrixEntry{names: names, size: int64(len(data))}
	s.bytes += int64(len(data)) - me.size
	s.publishGauges()
	return nil
}

// DeleteMatrix removes a matrix entry and its file. Factor entries are
// deleted separately (the cache's eviction hook calls DeleteFactor per
// key), so disk state mirrors cache state exactly; any factor of the
// matrix still on disk goes first, so a crash part-way leaves at most
// factors without their matrix, which recovery drops.
func (s *Store) DeleteMatrix(fingerprint string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	me, ok := s.matrices[fingerprint]
	if !ok {
		return nil
	}
	var errs []error
	for key, fe := range s.factors {
		if fe.fingerprint != fingerprint {
			continue
		}
		if err := s.removeEntryLocked(factorFile(key), fe.size); err != nil {
			errs = append(errs, err)
		} else {
			delete(s.factors, key)
		}
	}
	if err := s.removeEntryLocked(matrixFile(fingerprint), me.size); err != nil {
		errs = append(errs, err)
	} else {
		delete(s.matrices, fingerprint)
	}
	s.publishGauges()
	return errors.Join(errs...)
}

// PutFactor persists one computed preconditioner factor under its cache
// key. The key embeds the matrix fingerprint and every setup-relevant
// option, exactly like the in-memory cache. A factor entry never changes
// once written, so it is encoded before the lock: only the index check and
// the file steps hold it.
func (s *Store) PutFactor(key, fingerprint string, p *fsai.Preconditioner, setupNS int64) error {
	data := encodeFactor(key, fingerprint, p, setupNS)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.factors[key]; ok {
		return nil
	}
	if err := s.writeEntryLocked(factorFile(key), data); err != nil {
		return err
	}
	s.factors[key] = factorEntry{fingerprint: fingerprint, size: int64(len(data))}
	s.bytes += int64(len(data))
	s.publishGauges()
	return nil
}

// DeleteFactor removes one factor entry and its file (cache eviction,
// matrix deletion, or memory-pressure shedding).
func (s *Store) DeleteFactor(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fe, ok := s.factors[key]
	if !ok {
		return nil
	}
	if err := s.removeEntryLocked(factorFile(key), fe.size); err != nil {
		return err
	}
	delete(s.factors, key)
	s.publishGauges()
	return nil
}

// ---- recovery ----

// recover rebuilds the index from the entry files, collects the survivors
// for DrainRecovered and quarantines the rest. Disk state after a crash is
// untrusted input: a short write, a torn rename, a flipped bit or a stray
// file must cost exactly that file.
func (s *Store) recover() {
	for _, rel := range s.entryFiles(matrixDir) {
		rm, size, err := s.readMatrix(rel)
		if err != nil {
			s.reject("matrix", rel, err)
			continue
		}
		s.matrices[rm.Fingerprint] = matrixEntry{names: rm.Names, size: size}
		s.bytes += size
		s.recMatrices = append(s.recMatrices, rm)
	}
	for _, rel := range s.entryFiles(factorDir) {
		f, size, err := s.readFactor(rel)
		if errors.Is(err, errFactorGT) {
			// An intact entry of the layout that also held Gᵀ: dropped like
			// a factor whose matrix is gone, and rebuilt by the next cold
			// solve. Nothing was corrupt: it is not counted.
			s.log.Info("store factor entry of the retired layout with Gᵀ, dropping",
				"file", rel)
			s.bytes += size
			_ = s.removeEntryLocked(rel, size)
			continue
		}
		if err != nil {
			s.reject("factor", rel, err)
			continue
		}
		s.bytes += size
		if _, ok := s.matrices[f.Fingerprint]; !ok {
			// A factor whose matrix is gone can never serve a warm solve
			// (solves resolve the matrix first); drop it instead of carrying
			// dead weight forever. Nothing was corrupt: it is not counted.
			s.log.Info("store factor references unregistered matrix, dropping",
				"key", trunc(f.Key))
			_ = s.removeEntryLocked(rel, size)
			continue
		}
		s.factors[f.Key] = factorEntry{fingerprint: f.Fingerprint, size: size}
		s.recFactors = append(s.recFactors, *f)
	}
}

// entryFiles lists the regular files of one entry directory, relative to
// the data directory.
func (s *Store) entryFiles(sub string) []string {
	entries, err := os.ReadDir(filepath.Join(s.dir, sub))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			out = append(out, filepath.Join(sub, e.Name()))
		}
	}
	return out
}

// errFactorGT reports an intact factor entry of kind kindFactorGT.
var errFactorGT = errors.New("store: factor entry of the retired layout with Gᵀ")

// readEntry reads one entry file and opens its envelope, which must hold
// an entry of the given kind. An intact kindFactorGT entry read as a factor
// returns errFactorGT with the file's size.
func (s *Store) readEntry(rel string, kind byte) ([]byte, int64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, rel))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	k, payload, err := openFile(data)
	if err != nil {
		return nil, 0, err
	}
	if kind == kindFactor && k == kindFactorGT {
		return nil, int64(len(data)), errFactorGT
	}
	if k != kind {
		return nil, 0, fmt.Errorf("%w: wrong entry kind %q", errCorrupt, k)
	}
	return payload, int64(len(data)), nil
}

func (s *Store) readMatrix(rel string) (RecoveredMatrix, int64, error) {
	payload, size, err := s.readEntry(rel, kindMatrix)
	if err != nil {
		return RecoveredMatrix{}, 0, err
	}
	a, names, err := decodeMatrix(payload)
	if err != nil {
		return RecoveredMatrix{}, 0, err
	}
	// The checksum proves the file is what was written; the address proves
	// it is the entry its name claims to be.
	fp := a.Fingerprint()
	if rel != matrixFile(fp) {
		return RecoveredMatrix{}, 0, fmt.Errorf("%w: file is not at the address of its content fingerprint", errCorrupt)
	}
	return RecoveredMatrix{A: a, Fingerprint: fp, Names: names}, size, nil
}

func (s *Store) readFactor(rel string) (*RecoveredFactor, int64, error) {
	payload, size, err := s.readEntry(rel, kindFactor)
	if err != nil {
		return nil, size, err
	}
	f, err := decodeFactor(payload)
	if err != nil {
		return nil, 0, err
	}
	if rel != factorFile(f.Key) {
		return nil, 0, fmt.Errorf("%w: file is not at the address of its cache key", errCorrupt)
	}
	return f, size, nil
}

// reject quarantines and counts a file that failed verification.
func (s *Store) reject(kind, rel string, err error) {
	s.log.Warn("store "+kind+" entry corrupt, quarantining", "file", rel, "error", err.Error())
	s.quarantine(rel)
	s.corrupt.Inc()
}

// removeTempFiles clears *.tmp leftovers of interrupted atomic writes.
func (s *Store) removeTempFiles() {
	for _, sub := range []string{matrixDir, factorDir} {
		entries, err := os.ReadDir(filepath.Join(s.dir, sub))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				_ = os.Remove(filepath.Join(s.dir, sub, e.Name()))
			}
		}
	}
}

// ---- write-path plumbing ----

// writeEntryLocked writes data to rel atomically: temp file in the target
// directory, fsync, rename, directory fsync. The faultinject hook sits on
// the raw bytes so chaos tests can model short writes and bit flips at the
// exact boundary the durability design must survive.
func (s *Store) writeEntryLocked(rel string, data []byte) error {
	if faultinject.Enabled() {
		data = faultinject.MutateFileWrite(rel, data)
	}
	path := filepath.Join(s.dir, rel)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return s.writeErr(err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return s.writeErr(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return s.writeErr(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return s.writeErr(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return s.writeErr(err)
	}
	syncDir(filepath.Dir(path))
	s.reg.Counter("store.writes_total").Inc()
	return nil
}

func (s *Store) writeErr(err error) error {
	s.reg.Counter("store.errors_total").Inc()
	return fmt.Errorf("store: %w", err)
}

// removeEntryLocked unlinks one entry file of size bytes and fsyncs its
// directory, so the delete survives a crash. A failed unlink is returned
// and counted, and the caller keeps the entry in its index: store_entries
// keeps matching the disk, and the file is recovered at the next Open. A
// file already gone counts as removed.
func (s *Store) removeEntryLocked(rel string, size int64) error {
	path := filepath.Join(s.dir, rel)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return s.writeErr(err)
	}
	syncDir(filepath.Dir(path))
	s.bytes -= size
	s.reg.Counter("store.deletes_total").Inc()
	return nil
}

// quarantine moves a file under quarantine/ (never deletes): a corrupt
// entry is evidence for the operator, not garbage.
func (s *Store) quarantine(rel string) {
	src := filepath.Join(s.dir, rel)
	base := filepath.Base(rel)
	dst := filepath.Join(s.dir, quarantineDir, base)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(src, dst); err != nil {
		// The file may have vanished since it was read; it is still dropped
		// and counted either way.
		_ = os.Remove(src)
	}
}

func (s *Store) publishGauges() {
	s.reg.Gauge(`store.entries{kind="matrix"}`).Set(float64(len(s.matrices)))
	s.reg.Gauge(`store.entries{kind="factor"}`).Set(float64(len(s.factors)))
	s.reg.Gauge("store.bytes").Set(float64(s.bytes))
}

// syncDir fsyncs a directory so a preceding rename or unlink is durable.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// matrixFile and factorFile are the addresses of entry files: each is
// named by the hash of what identifies it, which recovery re-derives from
// the file's own content.
func matrixFile(fingerprint string) string {
	return filepath.Join(matrixDir, shortHex(fingerprint)+".bin")
}

func factorFile(key string) string {
	return filepath.Join(factorDir, shortHex(key)+".bin")
}

// shortHex names an entry file from the SHA-256 of its key, so file names
// stay fixed-length and filesystem-safe whatever the key holds.
func shortHex(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:12])
}

// trunc shortens a fingerprint/key for log lines.
func trunc(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}
