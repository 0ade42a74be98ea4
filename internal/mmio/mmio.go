// Package mmio reads and writes Matrix Market coordinate files, the
// exchange format of the SuiteSparse collection the paper draws its test
// set from. Supporting it lets users run the reproduction's solvers and
// preconditioners on the original matrices when they have them locally.
//
// Supported header: "matrix coordinate real|integer general|symmetric".
// Pattern and complex files are rejected with a descriptive error.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// Read parses a Matrix Market coordinate stream into CSR. For symmetric
// files the missing triangle is mirrored. Values must be finite: "NaN" and
// "Inf" parse as floats but no solver can use them, so they are rejected
// here rather than failing setup or the solve later.
func Read(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("mmio: missing %%%%MatrixMarket header")
	}
	if header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: only coordinate matrices supported, got %q %q", header[1], header[2])
	}
	field, sym := header[3], header[4]
	if field != "real" && field != "integer" {
		return nil, fmt.Errorf("mmio: unsupported field %q", field)
	}
	if sym != "general" && sym != "symmetric" {
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", sym)
	}

	// Skip comments, read size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("mmio: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("mmio: bad size line %q: %w", line, err)
		}
		break
	}
	const maxDim = 1 << 31
	if rows < 0 || cols < 0 || nnz < 0 || rows > maxDim || cols > maxDim {
		return nil, fmt.Errorf("mmio: implausible size line %d %d %d", rows, cols, nnz)
	}
	if int64(nnz) > int64(rows)*int64(cols) {
		return nil, fmt.Errorf("mmio: nnz %d exceeds %dx%d", nnz, rows, cols)
	}
	// Cap the preallocation: a hostile header must not drive allocation
	// beyond what the entry lines can actually justify.
	capHint := 1 << 20
	if nnz < capHint/2 {
		capHint = 2 * nnz
	}
	ts := make([]sparse.Triplet, 0, capHint)
	read := 0
	for sc.Scan() && read < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("mmio: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad row index %q", f[0])
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad column index %q", f[1])
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("mmio: bad value %q", f[2])
		}
		ts = append(ts, sparse.Triplet{Row: i - 1, Col: j - 1, Val: v})
		if sym == "symmetric" && i != j {
			ts = append(ts, sparse.Triplet{Row: j - 1, Col: i - 1, Val: v})
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("mmio: got %d entries, header promised %d", read, nnz)
	}
	m, err := sparse.NewCSRFromTriplets(rows, cols, ts)
	if err != nil {
		return nil, err
	}
	// After the build, so duplicate entries summing past MaxFloat64 count.
	for _, v := range m.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mmio: non-finite value %v", v)
		}
	}
	return m, nil
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits m in Matrix Market coordinate format. When symmetric is true
// only the lower triangle is written with a "symmetric" header (m must be
// numerically symmetric; this is not re-verified here).
func Write(w io.Writer, m *sparse.CSR, symmetric bool) error {
	bw := bufio.NewWriter(w)
	kind := "general"
	if symmetric {
		kind = "symmetric"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n", kind); err != nil {
		return err
	}
	nnz := 0
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, j := range cols {
			if symmetric && j > i {
				continue
			}
			nnz++
		}
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, nnz); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if symmetric && j > i {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes m to a Matrix Market file on disk.
func WriteFile(path string, m *sparse.CSR, symmetric bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m, symmetric); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
