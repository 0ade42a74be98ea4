package store

// Binary codec for on-disk store entries. Every entry file is
//
//	magic "FSST" | version u16 | kind u8 | pad u8 | paylen u64 | payload | sha256
//
// little-endian, with the SHA-256 computed over header+payload so a flipped
// bit anywhere in the file — including the kind byte — fails verification.
// Floats are stored as their IEEE-754 bits, so a factor read back from disk
// is bit-identical to the one computed: a warm solve after a restart runs
// exactly the same arithmetic as before the crash.

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
	kindFactor = 'F'
)

// errCorrupt is the sentinel for any integrity failure: bad magic, length
// mismatch (truncation/short write), checksum mismatch (bit flip) or a
// payload that does not decode. The store quarantines on it.
var errCorrupt = errors.New("store: corrupt entry")

// sealFile wraps a payload into the checksummed on-disk format.
func sealFile(kind byte, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload)+sumLen)
	copy(out, fileMagic)
	binary.LittleEndian.PutUint16(out[4:], fileVersion)
	out[6] = kind
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	copy(out[headerLen:], payload)
	sum := sha256.Sum256(out[:headerLen+len(payload)])
	copy(out[headerLen+len(payload):], sum[:])
	return out
}

// openFile verifies the envelope and returns the kind and payload. It
// accepts exactly the files sealFile writes.
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

// enc is a little-endian append-only payload builder.
type enc struct{ b []byte }

func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// strs encodes a count-prefixed list of strings.
func (e *enc) strs(v []string) {
	e.u64(uint64(len(v)))
	for _, s := range v {
		e.str(s)
	}
}

func (e *enc) ints(v []int) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(uint64(int64(x)))
	}
}

func (e *enc) floats(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(math.Float64bits(x))
	}
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
		e.b = append(e.b, 0)
		return
	}
	e.b = append(e.b, 1)
	e.u64(uint64(p.Rows))
	e.u64(uint64(p.NCols))
	e.ints(p.RowPtr)
	e.ints(p.Cols)
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

func (d *dec) ints(what string) []int {
	n := d.length(what, 8)
	if d.err != nil {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(d.i64(what))
	}
	return v
}

func (d *dec) floats(what string) []float64 {
	n := d.length(what, 8)
	if d.err != nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(d.u64(what))
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
	var e enc
	e.strs(names)
	e.csr(a)
	return sealFile(kindMatrix, e.b)
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
// both triangular factors (bit-exact), the base/final patterns and the
// setup stats, so a rehydrated factor serves warm solves — including the
// run report's pattern/phase sections — exactly like the one that was
// computed in-process.
func encodeFactor(key, fingerprint string, p *fsai.Preconditioner, setupNS int64) []byte {
	stats, _ := json.Marshal(p.Stats)
	var e enc
	e.str(key)
	e.str(fingerprint)
	e.i64(setupNS)
	e.str(string(stats))
	e.csr(p.G)
	e.csr(p.GT)
	e.pat(p.BasePattern)
	e.pat(p.FinalPattern)
	return sealFile(kindFactor, e.b)
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
	f.GT = d.csr("factor GT")
	f.Base = d.pat("factor base pattern")
	f.Final = d.pat("factor final pattern")
	if d.err != nil {
		return nil, d.err
	}
	if stats != "" {
		if err := json.Unmarshal([]byte(stats), &f.Stats); err != nil {
			return nil, fmt.Errorf("%w: stats: %v", errCorrupt, err)
		}
	}
	if f.G.Rows != f.GT.Rows || f.G.Cols != f.GT.Cols || f.G.NNZ() != f.GT.NNZ() {
		return nil, fmt.Errorf("%w: factor G/GT shape mismatch", errCorrupt)
	}
	return f, nil
}
