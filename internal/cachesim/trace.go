package cachesim

import (
	"unsafe"

	"repro/internal/pattern"
	"repro/internal/sparse"
)

// ElemBytes is the storage size of one vector element (double precision).
const ElemBytes = 8

// AlignOf returns the element offset of x[0] within its cache line, i.e.
// address(x[0])/8 mod (lineBytes/8) — exactly the virtual-address modulo of
// Section 4.1. The result is in [0, lineBytes/8).
func AlignOf(x []float64, lineBytes int) int {
	if len(x) == 0 {
		return 0
	}
	addr := uintptr(unsafe.Pointer(&x[0]))
	elemsPerLine := lineBytes / ElemBytes
	return int(addr/ElemBytes) % elemsPerLine
}

// AllocAligned allocates a float64 slice of length n whose first element
// sits at element offset offsetElems within a lineBytes cache line. This
// makes the cache-friendly extension deterministic across runs: the paper's
// algorithm takes the actual alignment of the multiplying vector as input,
// and experiments fix it so patterns are reproducible.
func AllocAligned(n, lineBytes, offsetElems int) []float64 {
	elemsPerLine := lineBytes / ElemBytes
	if elemsPerLine <= 0 {
		panic("cachesim: line smaller than one element")
	}
	offsetElems %= elemsPerLine
	if offsetElems < 0 {
		offsetElems += elemsPerLine
	}
	buf := make([]float64, n+2*elemsPerLine)
	cur := AlignOf(buf, lineBytes)
	shift := (offsetElems - cur + elemsPerLine) % elemsPerLine
	return buf[shift : shift+n : shift+n]
}

// TraceOptions configures an SpMV cache trace.
type TraceOptions struct {
	// AlignElems is the element offset of x[0] within its cache line.
	AlignElems int
	// IncludeStreams additionally streams the matrix value/index arrays and
	// the output vector through the cache, modelling the eviction pressure
	// the stride-1 accesses put on x's lines. When false only x accesses
	// enter the cache (pure spatial-reuse model).
	IncludeStreams bool
}

// XBase is the synthetic base byte address used for vector x in traces; it
// is line-aligned for AlignElems == 0 and far from the stream addresses.
const XBase uint64 = 1 << 30

// streamBase places the matrix/output streams in a distinct address region.
const streamBase uint64 = 1 << 34

// TraceSpMV replays the x-access stream of y = Mx (M given by its pattern:
// row-order CSR traversal touching x[j] for every stored (i,j)) through the
// cache and returns the number of misses attributable to x accesses.
//
// The cache is reset first, so the count is a cold-start measurement of one
// SpMV sweep, matching how the paper normalizes Figure 3 (misses per nnz).
func TraceSpMV(c *Cache, p *pattern.Pattern, opt TraceOptions) uint64 {
	c.Reset()
	xBase := XBase + uint64(opt.AlignElems)*ElemBytes
	var xMisses uint64
	// Stream cursors for A's values (8 B), column indices (4 B) and y (8 B).
	valAddr := streamBase
	idxAddr := streamBase + 1<<32
	yAddr := streamBase + 2<<32
	for i := 0; i < p.Rows; i++ {
		row := p.Row(i)
		for _, j := range row {
			if opt.IncludeStreams {
				c.Touch(valAddr)
				c.Touch(idxAddr)
				valAddr += 8
				idxAddr += 4
			}
			before := c.Misses()
			c.Access(xBase + uint64(j)*ElemBytes)
			xMisses += c.Misses() - before
		}
		if opt.IncludeStreams {
			c.Touch(yAddr)
			yAddr += 8
		}
	}
	return xMisses
}

// TraceCSR is TraceSpMV for a CSR matrix (its pattern is used).
func TraceCSR(c *Cache, m *sparse.CSR, opt TraceOptions) uint64 {
	return TraceSpMV(c, pattern.FromCSR(m), opt)
}

// TracePrecondition counts x-access misses over the full preconditioning
// operation GᵀG p: one SpMV with G (CSR, row order, gathering from p) and
// one with Gᵀ (its own CSR pattern, gathering from the intermediate vector).
// Both sweeps run through the same cache without an intervening reset,
// which captures the temporal-locality coupling between the two products
// that FSAIE(full) exploits (Section 6). It returns the x-access misses of
// each sweep separately.
func TracePrecondition(c *Cache, g *pattern.Pattern, opt TraceOptions) (gMisses, gtMisses uint64) {
	c.Reset()
	gt := g.Transpose()
	xBase := XBase + uint64(opt.AlignElems)*ElemBytes
	valAddr := streamBase
	idxAddr := streamBase + 1<<32
	yAddr := streamBase + 2<<32
	sweep := func(p *pattern.Pattern) uint64 {
		var xMisses uint64
		for i := 0; i < p.Rows; i++ {
			for _, j := range p.Row(i) {
				if opt.IncludeStreams {
					c.Touch(valAddr)
					c.Touch(idxAddr)
					valAddr += 8
					idxAddr += 4
				}
				before := c.Misses()
				c.Access(xBase + uint64(j)*ElemBytes)
				xMisses += c.Misses() - before
			}
			if opt.IncludeStreams {
				c.Touch(yAddr)
				yAddr += 8
			}
		}
		return xMisses
	}
	gMisses = sweep(g)
	gtMisses = sweep(gt)
	return gMisses, gtMisses
}

// CountLineVisits returns the number of distinct x cache lines touched per
// row, summed over all rows of the pattern, for a given line width (in
// elements) and alignment. Within a row, entries whose x elements share a
// line count once: the cache-friendly fill-in adds entries without adding
// line visits, which is why its extensions are nearly free.
//
// Rows are assumed sorted (the pattern invariant), so distinct lines are
// counted with a last-block comparison, exactly the "already considered
// column block" test of Algorithm 3.
func CountLineVisits(p *pattern.Pattern, elemsPerLine, alignElems int) int {
	if elemsPerLine < 1 {
		panic("cachesim: elemsPerLine must be >= 1")
	}
	alignElems %= elemsPerLine
	if alignElems < 0 {
		alignElems += elemsPerLine
	}
	visits := 0
	for i := 0; i < p.Rows; i++ {
		last := -1
		for _, j := range p.Row(i) {
			b := (j + alignElems) / elemsPerLine
			if b != last {
				visits++
				last = b
			}
		}
	}
	return visits
}
