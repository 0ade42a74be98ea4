// Package store is the fsaid daemon's crash-safe persistence layer: the
// durable half of the service's registry and preconditioner cache. The
// paper's whole economics rest on amortizing the expensive FSAI(E) setup
// across repeated solves; without durability one crash or deploy discards
// every factorization and the next solve pays full setup again. With a
// store attached (fsaid -data-dir), registered matrices and computed G/Gᵀ
// factors survive restarts bit-identically, so the first solve after
// recovery is a warm cache hit.
//
// On-disk layout under the data directory:
//
//	manifest.json    snapshot of the live entry set (schema 1)
//	manifest.log     append-only JSONL of operations since the snapshot
//	matrices/*.bin   one checksummed entry per registered matrix
//	factors/*.bin    one checksummed entry per cached preconditioner factor
//	quarantine/      corrupt entries moved aside at recovery, never deleted
//
// Durability discipline: entry files are written to a temp name, fsynced
// and atomically renamed before the manifest log line that references them
// is appended (also fsynced) — a crash between the two leaves an orphan
// file that the next Open removes, never a manifest entry pointing at
// nothing valid. Recovery replays snapshot+log, re-verifies every entry's
// SHA-256 (and the matrix content fingerprint), and QUARANTINES corrupt or
// truncated entries instead of failing startup: losing one factor costs
// one recomputation; refusing to start costs the whole cache.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	fsai "repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/pattern"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// compactEvery bounds the manifest log: after this many appended records
// the snapshot is rewritten and the log truncated, so recovery replay stays
// O(recent churn), not O(history).
const compactEvery = 64

const (
	manifestName  = "manifest.json"
	logName       = "manifest.log"
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

// manifestMatrix is one matrix entry of the manifest snapshot/log.
type manifestMatrix struct {
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name,omitempty"`
	File        string `json:"file"`
}

// manifestFactor is one factor entry of the manifest snapshot/log.
type manifestFactor struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	File        string `json:"file"`
	SetupNS     int64  `json:"setup_ns,omitempty"`
}

// manifest is the snapshot document (manifest.json).
type manifest struct {
	Schema   int              `json:"schema"`
	Matrices []manifestMatrix `json:"matrices"`
	Factors  []manifestFactor `json:"factors"`
}

// logRecord is one line of manifest.log.
type logRecord struct {
	Op     string          `json:"op"` // put-matrix|del-matrix|put-factor|del-factor
	Matrix *manifestMatrix `json:"matrix,omitempty"`
	Factor *manifestFactor `json:"factor,omitempty"`
	Ref    string          `json:"ref,omitempty"` // fingerprint / key for deletes
}

// RecoveredMatrix is a verified matrix entry rehydrated at Open.
type RecoveredMatrix struct {
	A    *sparse.CSR
	Name string
}

// RecoveredFactor is a verified preconditioner factor rehydrated at Open.
// G/GT/patterns/stats are exactly what was persisted; the service rebuilds
// the Apply scratch via fsai.FromFactors.
type RecoveredFactor struct {
	Key         string
	Fingerprint string
	SetupNS     int64
	G, GT       *sparse.CSR
	Base, Final *pattern.Pattern
	Stats       fsai.SetupStats
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Matrices int   `json:"matrices"`
	Factors  int   `json:"factors"`
	Bytes    int64 `json:"bytes"`
	// Corrupt counts entries quarantined at Open: the store_corrupt_total
	// counter.
	Corrupt int64 `json:"corrupt"`
}

// Store is the disk-backed persistence layer. All methods are safe for
// concurrent use; the write path (register, cold-solve factor persist,
// delete) serializes on one mutex — it is far off the solve hot path.
type Store struct {
	dir string
	reg *telemetry.Registry
	log *slog.Logger

	mu       sync.Mutex
	matrices map[string]manifestMatrix // by fingerprint
	factors  map[string]manifestFactor // by cache key
	logf     *os.File
	appended int
	bytes    int64

	corrupt *telemetry.Counter

	recMatrices []RecoveredMatrix
	recFactors  []RecoveredFactor
}

// Open attaches to (creating if needed) the data directory, replays the
// manifest, verifies every referenced entry and quarantines what fails.
// It returns an error only when the directory itself is unusable — a
// corrupt manifest or corrupt entries degrade to an emptier store, they
// never fail startup.
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
		matrices: map[string]manifestMatrix{},
		factors:  map[string]manifestFactor{},
	}
	s.reg.SetHelp("store_entries", "durable store entries by kind (matrix, factor)")
	s.reg.SetHelp("store_bytes", "bytes of verified durable store entries")
	s.reg.SetHelp("store_corrupt_total", "store entries quarantined for failed verification (checksum, truncation, fingerprint mismatch)")
	s.reg.SetHelp("store_writes_total", "durable store entry writes")
	s.reg.SetHelp("store_deletes_total", "durable store entry deletions")
	s.reg.SetHelp("store_errors_total", "best-effort store operations that failed (entry kept in memory only)")
	// Touch the zero counters so every family renders on /metrics from the
	// first scrape, not only after its first event.
	s.corrupt = s.reg.Counter("store.corrupt_total")
	s.reg.Counter("store.writes_total")
	s.reg.Counter("store.deletes_total")
	s.reg.Counter("store.errors_total")

	s.loadManifest()
	s.removeTempFiles()
	s.verifyEntries()
	s.sweepOrphans()
	if err := s.compactLocked(); err != nil {
		return nil, err
	}
	s.publishGauges()
	s.log.Info("store recovered",
		"dir", dir, "matrices", len(s.matrices), "factors", len(s.factors),
		"quarantined", s.corrupt.Value(), "bytes", s.bytes)
	return s, nil
}

// Dir returns the data directory root.
func (s *Store) Dir() string { return s.dir }

// Close releases the manifest log handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logf == nil {
		return nil
	}
	err := s.logf.Close()
	s.logf = nil
	return err
}

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

// PutMatrix persists a registered matrix. Re-putting known content is a
// cheap manifest update at most (the entry file is content-addressed by
// fingerprint and never rewritten); a fresh name updates the alias.
func (s *Store) PutMatrix(a *sparse.CSR, name string) error {
	fp := a.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if mm, ok := s.matrices[fp]; ok {
		if name == "" || mm.Name == name {
			return nil
		}
		mm.Name = name
		s.matrices[fp] = mm
		return s.appendLogLocked(logRecord{Op: "put-matrix", Matrix: &mm})
	}
	mm := manifestMatrix{
		Fingerprint: fp,
		Name:        name,
		File:        filepath.Join(matrixDir, shortHex(fp)+".bin"),
	}
	data := encodeMatrix(a, name)
	if err := s.writeEntryLocked(mm.File, data); err != nil {
		return err
	}
	s.matrices[fp] = mm
	s.bytes += int64(len(data))
	s.publishGauges()
	return s.appendLogLocked(logRecord{Op: "put-matrix", Matrix: &mm})
}

// DeleteMatrix removes a matrix entry and its file. Factor entries are
// deleted separately (the cache's eviction hook calls DeleteFactor per
// key), so disk state mirrors cache state exactly.
func (s *Store) DeleteMatrix(fingerprint string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mm, ok := s.matrices[fingerprint]
	if !ok {
		return nil
	}
	delete(s.matrices, fingerprint)
	s.removeEntryLocked(mm.File)
	// Factors are meaningless without their operator: sweep them with the
	// matrix so an unregister leaves nothing to rehydrate. Normally the
	// cache's evict hook has already removed them — this catches any that
	// raced past it.
	var firstErr error
	for key, mf := range s.factors {
		if mf.Fingerprint != fingerprint {
			continue
		}
		delete(s.factors, key)
		s.removeEntryLocked(mf.File)
		if err := s.appendLogLocked(logRecord{Op: "del-factor", Ref: key}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.publishGauges()
	if err := s.appendLogLocked(logRecord{Op: "del-matrix", Ref: fingerprint}); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// PutFactor persists one computed preconditioner factor under its cache
// key. The key embeds the matrix fingerprint and every setup-relevant
// option, exactly like the in-memory cache.
func (s *Store) PutFactor(key, fingerprint string, p *fsai.Preconditioner, setupNS int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.factors[key]; ok {
		return nil
	}
	mf := manifestFactor{
		Key:         key,
		Fingerprint: fingerprint,
		File:        filepath.Join(factorDir, shortHex(key)+".bin"),
		SetupNS:     setupNS,
	}
	data := encodeFactor(key, fingerprint, p, setupNS)
	if err := s.writeEntryLocked(mf.File, data); err != nil {
		return err
	}
	s.factors[key] = mf
	s.bytes += int64(len(data))
	s.publishGauges()
	return s.appendLogLocked(logRecord{Op: "put-factor", Factor: &mf})
}

// DeleteFactor removes one factor entry and its file (cache eviction,
// matrix deletion, or memory-pressure shedding).
func (s *Store) DeleteFactor(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mf, ok := s.factors[key]
	if !ok {
		return nil
	}
	delete(s.factors, key)
	s.removeEntryLocked(mf.File)
	s.publishGauges()
	return s.appendLogLocked(logRecord{Op: "del-factor", Ref: key})
}

// ---- recovery ----

// loadManifest reads the snapshot and replays the append log into the
// in-memory maps. A corrupt snapshot is quarantined and recovery continues
// from the log alone; a partial trailing log line (torn write at crash) is
// ignored.
func (s *Store) loadManifest() {
	snapPath := filepath.Join(s.dir, manifestName)
	if data, err := os.ReadFile(snapPath); err == nil {
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr != nil {
			s.log.Warn("store manifest snapshot corrupt, quarantining", "error", jerr.Error())
			s.quarantine(manifestName)
		} else {
			for _, mm := range m.Matrices {
				s.matrices[mm.Fingerprint] = mm
			}
			for _, mf := range m.Factors {
				s.factors[mf.Key] = mf
			}
		}
	}
	logPath := filepath.Join(s.dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec logRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			// A torn final line is the normal signature of a crash mid-append;
			// everything before it is intact (each append was fsynced whole).
			s.log.Debug("store manifest log ends in a partial record, ignoring tail")
			break
		}
		switch rec.Op {
		case "put-matrix":
			if rec.Matrix != nil {
				s.matrices[rec.Matrix.Fingerprint] = *rec.Matrix
			}
		case "del-matrix":
			delete(s.matrices, rec.Ref)
		case "put-factor":
			if rec.Factor != nil {
				s.factors[rec.Factor.Key] = *rec.Factor
			}
		case "del-factor":
			delete(s.factors, rec.Ref)
		}
	}
}

// verifyEntries reads every manifest-referenced file, verifies checksum and
// content, collects the survivors for DrainRecovered and quarantines the
// rest. Disk state after a crash is untrusted input: a short write, a torn
// rename or a flipped bit must cost exactly one entry.
func (s *Store) verifyEntries() {
	for fp, mm := range s.matrices {
		a, name, err := s.readMatrix(mm)
		if err != nil {
			s.log.Warn("store matrix entry corrupt, quarantining",
				"fingerprint", trunc(fp), "file", mm.File, "error", err.Error())
			s.quarantine(mm.File)
			s.corrupt.Inc()
			delete(s.matrices, fp)
			continue
		}
		s.recMatrices = append(s.recMatrices, RecoveredMatrix{A: a, Name: name})
	}
	for key, mf := range s.factors {
		f, err := s.readFactor(mf)
		switch {
		case err != nil:
			s.log.Warn("store factor entry corrupt, quarantining",
				"key", trunc(key), "file", mf.File, "error", err.Error())
			s.quarantine(mf.File)
			s.corrupt.Inc()
			delete(s.factors, key)
		case s.matrices[f.Fingerprint].Fingerprint == "":
			// A factor whose matrix is gone can never serve a warm solve
			// (solves resolve the matrix first); drop it instead of carrying
			// dead weight forever.
			s.log.Info("store factor references unregistered matrix, dropping",
				"key", trunc(key))
			s.removeEntryLocked(mf.File)
			delete(s.factors, key)
		default:
			s.recFactors = append(s.recFactors, *f)
		}
	}
}

func (s *Store) readMatrix(mm manifestMatrix) (*sparse.CSR, string, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, mm.File))
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kind, payload, err := openFile(data)
	if err != nil {
		return nil, "", err
	}
	if kind != kindMatrix {
		return nil, "", fmt.Errorf("%w: wrong entry kind %q", errCorrupt, kind)
	}
	a, name, err := decodeMatrix(payload)
	if err != nil {
		return nil, "", err
	}
	// The checksum proves the file is what was written; the fingerprint
	// proves what was written is the matrix the manifest says it is.
	if got := a.Fingerprint(); got != mm.Fingerprint {
		return nil, "", fmt.Errorf("%w: content fingerprint mismatch", errCorrupt)
	}
	s.bytes += int64(len(data))
	return a, name, nil
}

func (s *Store) readFactor(mf manifestFactor) (*RecoveredFactor, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, mf.File))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kind, payload, err := openFile(data)
	if err != nil {
		return nil, err
	}
	if kind != kindFactor {
		return nil, fmt.Errorf("%w: wrong entry kind %q", errCorrupt, kind)
	}
	f, err := decodeFactor(payload)
	if err != nil {
		return nil, err
	}
	if f.Key != mf.Key || f.Fingerprint != mf.Fingerprint {
		return nil, fmt.Errorf("%w: entry key does not match manifest", errCorrupt)
	}
	s.bytes += int64(len(data))
	return f, nil
}

// sweepOrphans removes entry files no manifest entry references — the
// leftovers of a crash between entry write and manifest append.
func (s *Store) sweepOrphans() {
	referenced := map[string]bool{}
	for _, mm := range s.matrices {
		referenced[mm.File] = true
	}
	for _, mf := range s.factors {
		referenced[mf.File] = true
	}
	for _, sub := range []string{matrixDir, factorDir} {
		entries, err := os.ReadDir(filepath.Join(s.dir, sub))
		if err != nil {
			continue
		}
		for _, e := range entries {
			rel := filepath.Join(sub, e.Name())
			if !referenced[rel] {
				s.log.Info("store removing orphan entry file", "file", rel)
				_ = os.Remove(filepath.Join(s.dir, rel))
			}
		}
	}
}

// removeTempFiles clears *.tmp leftovers of interrupted atomic writes.
func (s *Store) removeTempFiles() {
	for _, sub := range []string{".", matrixDir, factorDir} {
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

func (s *Store) removeEntryLocked(rel string) {
	path := filepath.Join(s.dir, rel)
	if fi, err := os.Stat(path); err == nil {
		s.bytes -= fi.Size()
		if s.bytes < 0 {
			s.bytes = 0
		}
	}
	_ = os.Remove(path)
	s.reg.Counter("store.deletes_total").Inc()
}

// appendLogLocked appends one fsynced record to manifest.log and compacts
// when the log has grown past compactEvery records.
func (s *Store) appendLogLocked(rec logRecord) error {
	if s.logf == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return s.writeErr(err)
		}
		s.logf = f
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return s.writeErr(err)
	}
	b = append(b, '\n')
	if _, err := s.logf.Write(b); err != nil {
		return s.writeErr(err)
	}
	if err := s.logf.Sync(); err != nil {
		return s.writeErr(err)
	}
	s.appended++
	if s.appended >= compactEvery {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the snapshot from the in-memory manifest and
// truncates the log. Runs at Open (so recovery work is never repeated) and
// every compactEvery appends.
func (s *Store) compactLocked() error {
	m := manifest{Schema: 1}
	for _, mm := range s.matrices {
		m.Matrices = append(m.Matrices, mm)
	}
	for _, mf := range s.factors {
		m.Factors = append(m.Factors, mf)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return s.writeErr(err)
	}
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return s.writeErr(err)
	}
	if f, err := os.OpenFile(tmp, os.O_RDONLY, 0); err == nil {
		_ = f.Sync()
		f.Close()
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return s.writeErr(err)
	}
	syncDir(s.dir)
	if s.logf != nil {
		s.logf.Close()
		s.logf = nil
	}
	if err := os.Truncate(filepath.Join(s.dir, logName), 0); err != nil && !errors.Is(err, os.ErrNotExist) {
		return s.writeErr(err)
	}
	s.appended = 0
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
		// The file may be gone entirely (manifest pointed at nothing); the
		// entry is still dropped and counted either way.
		_ = os.Remove(src)
	}
}

func (s *Store) publishGauges() {
	s.reg.Gauge(`store.entries{kind="matrix"}`).Set(float64(len(s.matrices)))
	s.reg.Gauge(`store.entries{kind="factor"}`).Set(float64(len(s.factors)))
	s.reg.Gauge("store.bytes").Set(float64(s.bytes))
}

// syncDir fsyncs a directory so a preceding rename is durable.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// shortHex names an entry file from the SHA-256 of its manifest key, so
// file names stay fixed-length and filesystem-safe whatever the key holds.
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
