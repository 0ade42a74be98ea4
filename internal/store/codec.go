package store

// Binary codec for on-disk store entries. Every entry file is
//
//	magic "FSST" | version u16 | kind u8 | pad u8 | paylen u64 | payload | sha256
//
// little-endian, with the SHA-256 computed over header+payload so a flipped
// bit anywhere in the file — including the kind byte — fails verification.
// Floats are stored as their IEEE-754 bits, so a factor read back from disk
// is bit-identical to the one computed: a warm solve after a restart runs
// exactly the same arithmetic as before the crash. An entry is encoded into
// one buffer of its exact size and decoded one array section at a time.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	fsai "repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

const (
	fileMagic   = "FSST"
	fileVersion = 2 // 2: a matrix entry holds its alias list
	headerLen   = 4 + 2 + 1 + 1 + 8
	sumLen      = sha256.Size

	kindMatrix = 'M'
	kindFactor = 'G' // a factor entry holding G and the base pattern
	// kindFactorGT is the factor entry that also held Gᵀ and the final
	// pattern. Recovery deletes it unread, as it does a factor whose matrix
	// is gone: the next cold solve rebuilds the factor.
	kindFactorGT = 'F'
)

// errCorrupt is the sentinel for any integrity failure: bad magic, length
// mismatch (truncation/short write), checksum mismatch (bit flip) or a
// payload that does not decode. The store quarantines on it.
var errCorrupt = errors.New("store: corrupt entry")

// seal encodes one entry of the given kind into a single buffer of exactly
// its size. payload runs twice on the same code path: first on a sizing
// enc, which only counts bytes, then on the presized buffer, where it
// writes every field in place behind the header. The checksum is then
// computed over header+payload and written at the end, so no byte is
// copied twice.
func seal(kind byte, payload func(e *enc)) []byte {
	var e enc
	payload(&e)
	n := e.off
	out := make([]byte, headerLen+n+sumLen)
	copy(out, fileMagic)
	binary.LittleEndian.PutUint16(out[4:], fileVersion)
	out[6] = kind
	binary.LittleEndian.PutUint64(out[8:], uint64(n))
	e = enc{b: out[headerLen : headerLen+n]}
	payload(&e)
	if e.off != n {
		panic(fmt.Sprintf("store: entry payload wrote %d bytes after sizing %d", e.off, n))
	}
	sum := sha256.Sum256(out[:headerLen+n])
	copy(out[headerLen+n:], sum[:])
	return out
}

// openFile verifies the envelope and returns the kind and payload. It
// accepts exactly the files seal writes.
func openFile(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < headerLen+sumLen || string(data[:4]) != fileMagic {
		return 0, nil, fmt.Errorf("%w: bad magic or truncated header", errCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != fileVersion {
		return 0, nil, fmt.Errorf("%w: unknown version %d", errCorrupt, v)
	}
	if data[7] != 0 {
		return 0, nil, fmt.Errorf("%w: nonzero header pad", errCorrupt)
	}
	paylen := binary.LittleEndian.Uint64(data[8:])
	if paylen != uint64(len(data)-headerLen-sumLen) {
		return 0, nil, fmt.Errorf("%w: payload length %d does not match file size (short write?)", errCorrupt, paylen)
	}
	want := data[headerLen+paylen:]
	sum := sha256.Sum256(data[:headerLen+paylen])
	for i := range sum {
		if sum[i] != want[i] {
			return 0, nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
		}
	}
	return data[6], data[headerLen : headerLen+paylen], nil
}

// enc writes a little-endian payload. With b nil it only counts: off is
// then the payload size, which seal allocates before the writing pass.
type enc struct {
	b   []byte // the payload being written; nil while sizing
	off int    // bytes counted or written so far
}

func (e *enc) u64(v uint64) {
	if e.b != nil {
		binary.LittleEndian.PutUint64(e.b[e.off:], v)
	}
	e.off += 8
}

func (e *enc) i64(v int64) { e.u64(uint64(v)) }

// raw writes s with no length prefix.
func (e *enc) raw(s string) {
	if e.b != nil {
		copy(e.b[e.off:], s)
	}
	e.off += len(s)
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.raw(s)
}

// strs encodes a count-prefixed list of strings.
func (e *enc) strs(v []string) {
	e.u64(uint64(len(v)))
	for _, s := range v {
		e.str(s)
	}
}

// ints and floats encode a count-prefixed array as one section of 8-byte
// words.
func (e *enc) ints(v []int) {
	e.u64(uint64(len(v)))
	if e.b != nil {
		sec := e.b[e.off : e.off+8*len(v)]
		for k, x := range v {
			binary.LittleEndian.PutUint64(sec[8*k:], uint64(int64(x)))
		}
	}
	e.off += 8 * len(v)
}

func (e *enc) floats(v []float64) {
	e.u64(uint64(len(v)))
	if e.b != nil {
		sec := e.b[e.off : e.off+8*len(v)]
		for k, x := range v {
			binary.LittleEndian.PutUint64(sec[8*k:], math.Float64bits(x))
		}
	}
	e.off += 8 * len(v)
}

func (e *enc) csr(m *sparse.CSR) {
	e.u64(uint64(m.Rows))
	e.u64(uint64(m.Cols))
	e.ints(m.RowPtr)
	e.ints(m.ColIdx)
	e.floats(m.Val)
}

// pat encodes a possibly-nil pattern behind a presence flag.
func (e *enc) pat(p *pattern.Pattern) {
	if p == nil {
		e.flag(0)
		return
	}
	e.flag(1)
	e.u64(uint64(p.Rows))
	e.u64(uint64(p.NCols))
	e.ints(p.RowPtr)
	e.ints(p.Cols)
}

func (e *enc) flag(v byte) {
	if e.b != nil {
		e.b[e.off] = v
	}
	e.off++
}

// dec is the matching bounds-checked reader: a payload that lies about its
// lengths (possible only before the checksum gate, or with a crafted file)
// yields err instead of a panic or an absurd allocation.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s", errCorrupt, what)
	}
}

func (d *dec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64(what string) int64 { return int64(d.u64(what)) }

// length reads an element count and bounds it by the bytes remaining, with
// elemSize the minimum encoded size of one element.
func (d *dec) length(what string, elemSize int) int {
	n := d.u64(what)
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off)/uint64(elemSize) {
		d.fail(what + " length")
		return 0
	}
	return int(n)
}

func (d *dec) str(what string) string {
	n := d.length(what, 1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) strs(what string) []string {
	// Every string carries at least its 8-byte length.
	v := make([]string, d.length(what, 8))
	for i := range v {
		v[i] = d.str(what)
	}
	return v
}

// section reads an array's word count, bounded by the bytes remaining, and
// returns its words: one bounds check per array, not per element.
func (d *dec) section(what string) []byte {
	n := d.length(what, 8)
	if d.err != nil {
		return nil
	}
	sec := d.b[d.off : d.off+8*n]
	d.off += 8 * n
	return sec
}

func (d *dec) ints(what string) []int {
	sec := d.section(what)
	if d.err != nil {
		return nil
	}
	v := make([]int, len(sec)/8)
	for k := range v {
		v[k] = int(int64(binary.LittleEndian.Uint64(sec[8*k:])))
	}
	return v
}

func (d *dec) floats(what string) []float64 {
	sec := d.section(what)
	if d.err != nil {
		return nil
	}
	v := make([]float64, len(sec)/8)
	for k := range v {
		v[k] = math.Float64frombits(binary.LittleEndian.Uint64(sec[8*k:]))
	}
	return v
}

func (d *dec) csr(what string) *sparse.CSR {
	m := &sparse.CSR{
		Rows:   int(d.u64(what + " rows")),
		Cols:   int(d.u64(what + " cols")),
		RowPtr: d.ints(what + " rowptr"),
		ColIdx: d.ints(what + " colidx"),
		Val:    d.floats(what + " val"),
	}
	if d.err != nil {
		return nil
	}
	// A checksum-valid entry can still be structurally invalid (a column
	// index out of range, decreasing row pointers): quarantine it here
	// rather than let its first SpMV panic.
	if err := m.Validate(); err != nil {
		d.err = fmt.Errorf("%w: %s: %v", errCorrupt, what, err)
		return nil
	}
	return m
}

func (d *dec) pat(what string) *pattern.Pattern {
	if d.err != nil {
		return nil
	}
	if d.off >= len(d.b) {
		d.fail(what)
		return nil
	}
	present := d.b[d.off]
	d.off++
	if present == 0 {
		return nil
	}
	p := &pattern.Pattern{
		Rows:   int(d.u64(what + " rows")),
		NCols:  int(d.u64(what + " ncols")),
		RowPtr: d.ints(what + " rowptr"),
		Cols:   d.ints(what + " cols"),
	}
	if d.err != nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		d.err = fmt.Errorf("%w: %s: %v", errCorrupt, what, err)
		return nil
	}
	return p
}

// encodeMatrix seals a registered matrix: its aliases in registration
// order, then the operator.
func encodeMatrix(a *sparse.CSR, names []string) []byte {
	return seal(kindMatrix, func(e *enc) {
		e.strs(names)
		e.csr(a)
	})
}

func decodeMatrix(payload []byte) (a *sparse.CSR, names []string, err error) {
	d := dec{b: payload}
	names = d.strs("matrix names")
	a = d.csr("matrix")
	if d.err != nil {
		return nil, nil, d.err
	}
	return a, names, nil
}

// encodeFactor seals a computed preconditioner factor under its cache key:
// G (bit-exact), the base pattern and the setup stats. Gᵀ and the final
// pattern are not stored: fsai.FromFactors rebuilds Gᵀ with the transpose
// compute ran, and the final pattern is G's structure, so a rehydrated
// factor serves warm solves — including the run report's pattern/phase
// sections — exactly like the one that was computed in-process.
func encodeFactor(key, fingerprint string, p *fsai.Preconditioner, setupNS int64) []byte {
	stats, _ := json.Marshal(p.Stats)
	st := string(stats)
	return seal(kindFactor, func(e *enc) {
		e.str(key)
		e.str(fingerprint)
		e.i64(setupNS)
		e.str(st)
		e.csr(p.G)
		e.pat(p.BasePattern)
	})
}

func decodeFactor(payload []byte) (*RecoveredFactor, error) {
	d := dec{b: payload}
	f := &RecoveredFactor{
		Key:         d.str("factor key"),
		Fingerprint: d.str("factor fingerprint"),
		SetupNS:     d.i64("factor setup_ns"),
	}
	stats := d.str("factor stats")
	f.G = d.csr("factor G")
	f.Base = d.pat("factor base pattern")
	if d.err != nil {
		return nil, d.err
	}
	if stats != "" {
		if err := json.Unmarshal([]byte(stats), &f.Stats); err != nil {
			return nil, fmt.Errorf("%w: stats: %v", errCorrupt, err)
		}
	}
	if f.G.Rows != f.G.Cols {
		return nil, fmt.Errorf("%w: factor G is %dx%d", errCorrupt, f.G.Rows, f.G.Cols)
	}
	if f.Base != nil && (f.Base.Rows != f.G.Rows || f.Base.NCols != f.G.Cols) {
		return nil, fmt.Errorf("%w: factor base pattern shape does not match G", errCorrupt)
	}
	return f, nil
}
