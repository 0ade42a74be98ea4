package cachesim

import (
	"testing"

	"repro/internal/pattern"
)

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 32 << 10, LineBytes: 48, Ways: 8}, // non-power-of-two line
		{SizeBytes: 0, LineBytes: 64, Ways: 8},        // zero size
		{SizeBytes: 32 << 10, LineBytes: 64, Ways: 0}, // zero ways
		{SizeBytes: 100, LineBytes: 64, Ways: 1},      // size not multiple of line
		{SizeBytes: 192, LineBytes: 64, Ways: 1},      // sets=3 not a power of two
		{SizeBytes: 64 * 7, LineBytes: 64, Ways: 2},   // lines not divisible by ways... 7/2
		{SizeBytes: -64, LineBytes: 64, Ways: 1},      // negative
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, c)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2})
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) || !c.Access(63) {
		t.Error("same line should hit")
	}
	if c.Access(64) {
		t.Error("next line should miss")
	}
	if c.Misses() != 2 {
		t.Errorf("misses=%d", c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2 ways, 2 sets of 64B lines = 256B cache.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 2})
	// Three lines mapping to set 0: line numbers 0, 2, 4 (even → set 0).
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(0 * 64) // touch line 0: line 2 becomes LRU
	c.Access(4 * 64) // evicts line 2
	if !c.Access(0 * 64) {
		t.Error("line 0 should still be resident")
	}
	if c.Access(2 * 64) {
		t.Error("line 2 should have been evicted")
	}
	if c.Evictions() == 0 {
		t.Error("eviction counter not incremented")
	}
}

func TestFullyAssociative(t *testing.T) {
	// 4 lines fully associative.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 4})
	for i := 0; i < 4; i++ {
		c.Access(uint64(i * 64))
	}
	for i := 0; i < 4; i++ {
		if !c.Access(uint64(i * 64)) {
			t.Errorf("line %d should be resident", i)
		}
	}
	c.Access(4 * 64) // evicts LRU = line 0
	if c.Access(0) {
		t.Error("line 0 should have been evicted (LRU)")
	}
}

func TestReset(t *testing.T) {
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 4})
	c.Access(0)
	c.Reset()
	if c.Misses() != 0 {
		t.Error("counters not reset")
	}
	if c.Access(0) {
		t.Error("line survived reset")
	}
}

func TestResetEquivalentToFreshCache(t *testing.T) {
	// A reset cache must reproduce a fresh cache's miss sequence exactly:
	// stale LRU stamps must not bias victim selection (historically they
	// could leave way 0 unfilled, shrinking the effective associativity).
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 4}
	addrs := make([]uint64, 0, 4096)
	for i := 0; i < 4096; i++ {
		addrs = append(addrs, uint64((i*2654435761)%(1<<16)))
	}
	run := func(c *Cache) uint64 {
		for _, a := range addrs {
			c.Access(a)
		}
		return c.Misses()
	}
	fresh := run(New(cfg))
	warm := New(cfg)
	run(warm)
	warm.Reset()
	if again := run(warm); again != fresh {
		t.Fatalf("post-reset misses %d != fresh misses %d", again, fresh)
	}
}

func TestAllocAligned(t *testing.T) {
	for _, line := range []int{64, 256} {
		for off := 0; off < line/8; off += 3 {
			x := AllocAligned(100, line, off)
			if len(x) != 100 {
				t.Fatalf("length %d", len(x))
			}
			if got := AlignOf(x, line); got != off {
				t.Errorf("line=%d: AlignOf=%d want %d", line, got, off)
			}
		}
	}
	// Negative offsets wrap.
	x := AllocAligned(10, 64, -1)
	if got := AlignOf(x, 64); got != 7 {
		t.Errorf("negative offset: AlignOf=%d want 7", got)
	}
}

func TestAlignOfEmpty(t *testing.T) {
	if AlignOf(nil, 64) != 0 {
		t.Error("empty slice alignment should be 0")
	}
}

func TestTraceSpMVCompulsoryMisses(t *testing.T) {
	// Dense single row over 64 elements, aligned: 8 lines touched → 8
	// compulsory misses regardless of entry count.
	cols := make([]int, 64)
	for j := range cols {
		cols[j] = j
	}
	p := pattern.FromRows(1, 64, [][]int{cols})
	c := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 8})
	misses := TraceSpMV(c, p, TraceOptions{})
	if misses != 8 {
		t.Errorf("misses=%d want 8", misses)
	}
}

func TestTraceSpMVAlignmentShift(t *testing.T) {
	// A row touching elements 0..7: aligned it is 1 line; at offset 4 the
	// elements straddle 2 lines.
	cols := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p := pattern.FromRows(1, 16, [][]int{cols})
	c := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 8})
	if m := TraceSpMV(c, p, TraceOptions{AlignElems: 0}); m != 1 {
		t.Errorf("aligned misses=%d want 1", m)
	}
	if m := TraceSpMV(c, p, TraceOptions{AlignElems: 4}); m != 2 {
		t.Errorf("offset misses=%d want 2", m)
	}
}

func TestTracePreconditionTemporalReuse(t *testing.T) {
	// Small pattern: the Gᵀ sweep follows the G sweep in the same cache;
	// with a cache large enough to hold all of x, the second sweep has no
	// misses at all.
	p := pattern.FromRows(4, 4, [][]int{{0}, {0, 1}, {2}, {2, 3}})
	c := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 8})
	gm, gtm := TracePrecondition(c, p, TraceOptions{})
	if gm == 0 {
		t.Error("first sweep should have compulsory misses")
	}
	if gtm != 0 {
		t.Errorf("second sweep misses=%d want 0 (x resident)", gtm)
	}
}

func TestCountLineVisits(t *testing.T) {
	// Row {0,1,7} aligned: all one line → 1 visit. Row {0,8}: 2 visits.
	p := pattern.FromRows(2, 16, [][]int{{0, 1, 7}, {0, 8}})
	if v := CountLineVisits(p, 8, 0); v != 3 {
		t.Errorf("visits=%d want 3", v)
	}
	// Offset 4: {0,1} in one line, {7} in the next → row 0 has 2 visits;
	// {0} and {8} → elements 4 and 12 → lines 0 and 1 → 2 visits.
	if v := CountLineVisits(p, 8, 4); v != 4 {
		t.Errorf("offset visits=%d want 4", v)
	}
}

func TestCountLineVisitsExtensionInvariant(t *testing.T) {
	// Filling a row up to full lines must not change the visit count —
	// the core invariant the cache-friendly fill-in relies on.
	sparse := pattern.FromRows(1, 32, [][]int{{2, 9, 17}})
	full := pattern.FromRows(1, 32, [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}})
	if a, b := CountLineVisits(sparse, 8, 0), CountLineVisits(full, 8, 0); a != b {
		t.Errorf("extension changed line visits: %d vs %d", a, b)
	}
}

func TestTraceWithStreamsEvictionPressure(t *testing.T) {
	// With stream inclusion, matrix/output streams flow through the cache
	// and can evict x lines; miss count must be >= the pure-x trace.
	cols := make([][]int, 64)
	for i := range cols {
		for j := 0; j <= i; j += 2 {
			cols[i] = append(cols[i], j)
		}
	}
	p := pattern.FromRows(64, 64, cols)
	c := New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
	pure := TraceSpMV(c, p, TraceOptions{})
	streams := TraceSpMV(c, p, TraceOptions{IncludeStreams: true})
	if streams < pure {
		t.Errorf("stream pressure reduced misses: %d < %d", streams, pure)
	}
}
