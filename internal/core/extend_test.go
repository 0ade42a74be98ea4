package fsai

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cachesim"
	"repro/internal/pattern"
)

func TestExtendPatternKnownLower(t *testing.T) {
	// 16x16 lower pattern, 8 elems per line, align 0.
	// Row 9 has entries {1, 9}: entry 1 pulls block [0,7] (all <= 9, kept),
	// entry 9 pulls block [8,15] clipped to <= 9 → {8,9}.
	rows := make([][]int, 16)
	rows[9] = []int{1, 9}
	for i := range rows {
		if i != 9 {
			rows[i] = []int{i}
		}
	}
	s := pattern.FromRows(16, 16, rows)
	e := ExtendPattern(s, 8, 0, ClipLower, 0, 1)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := e.Row(9)
	if len(got) != len(want) {
		t.Fatalf("row 9 = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("row 9 = %v, want %v", got, want)
		}
	}
	// Row 0 = {0}: block [0,7] clipped to <= 0 → stays {0}.
	if len(e.Row(0)) != 1 {
		t.Errorf("row 0 = %v, want {0}", e.Row(0))
	}
}

func TestExtendPatternAlignment(t *testing.T) {
	// With align=4, element j sits in line (j+4)/8: entry j=3 is in block 0
	// covering elements -4..3 → columns 0..3.
	rows := [][]int{{0}, {1}, {2}, {3, 3}, {4}, {5}, {6}, {7}}
	rows[3] = []int{3}
	s := pattern.FromRows(8, 8, rows)
	e := ExtendPattern(s, 8, 4, ClipLower, 0, 1)
	got := e.Row(3)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("row 3 = %v want %v", got, want)
	}
	// Same entry with align=0 would cover 0..7 clipped to <=3 — same here;
	// use row 5 to discriminate: align=4 puts j=5 in block covering 4..11
	// → columns 4,5 (clipped); align=0 puts j=5 in block 0..7 → 0..5.
	e0 := ExtendPattern(s, 8, 0, ClipLower, 0, 1)
	if len(e.Row(5)) != 2 || len(e0.Row(5)) != 6 {
		t.Errorf("alignment not respected: align4=%v align0=%v", e.Row(5), e0.Row(5))
	}
}

func TestExtendPatternUpperClip(t *testing.T) {
	rows := [][]int{{0, 5}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	s := pattern.FromRows(8, 8, rows)
	e := ExtendPattern(s, 8, 0, ClipUpper, 0, 1)
	// Row 0 entries pull block [0,7]; upper clip keeps j >= 0 → full row.
	if len(e.Row(0)) != 8 {
		t.Errorf("row 0 = %v", e.Row(0))
	}
	// Row 3 = {3} pulls [0,7] clipped to j >= 3 → {3..7}.
	if got := e.Row(3); len(got) != 5 || got[0] != 3 {
		t.Errorf("row 3 = %v", got)
	}
}

func TestExtendPatternNoClip(t *testing.T) {
	s := pattern.FromRows(2, 16, [][]int{{9}, {0}})
	e := ExtendPattern(s, 8, 0, ClipNone, 0, 1)
	if got := e.Row(0); len(got) != 8 || got[0] != 8 || got[7] != 15 {
		t.Errorf("row 0 = %v", got)
	}
}

func TestExtendPatternPreservesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(40)
		rows := make([][]int, n)
		for i := 0; i < n; i++ {
			rows[i] = append(rows[i], i) // diagonal
			for k := 0; k < rng.Intn(4); k++ {
				rows[i] = append(rows[i], rng.Intn(i+1))
			}
		}
		s := pattern.FromRows(n, n, rows)
		e := ExtendPattern(s, 8, rng.Intn(8), ClipLower, 0, 1)
		if !s.SubsetOf(e) {
			t.Fatalf("trial %d: base not preserved", trial)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestExtendPatternIdempotent verifies the fixpoint property: extending an
// already-extended pattern adds nothing, because every line touched is
// already fully present.
func TestExtendPatternIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(40)
		rows := make([][]int, n)
		for i := 0; i < n; i++ {
			rows[i] = append(rows[i], i)
			for k := 0; k < rng.Intn(3); k++ {
				rows[i] = append(rows[i], rng.Intn(i+1))
			}
		}
		s := pattern.FromRows(n, n, rows)
		align := rng.Intn(8)
		e1 := ExtendPattern(s, 8, align, ClipLower, 0, 1)
		e2 := ExtendPattern(e1, 8, align, ClipLower, 0, 1)
		if !e1.Equal(e2) {
			t.Fatalf("trial %d: extension not idempotent (%d -> %d entries)", trial, e1.NNZ(), e2.NNZ())
		}
	}
}

// TestExtendPatternLineVisitInvariant verifies the core architectural
// claim of Algorithm 3: the extension never increases the number of
// distinct x cache lines a row touches, at any alignment.
func TestExtendPatternLineVisitInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(60)
		rows := make([][]int, n)
		for i := 0; i < n; i++ {
			rows[i] = append(rows[i], i)
			for k := 0; k < rng.Intn(5); k++ {
				rows[i] = append(rows[i], rng.Intn(i+1))
			}
		}
		s := pattern.FromRows(n, n, rows)
		for _, elems := range []int{4, 8, 32} {
			align := rng.Intn(elems)
			e := ExtendPattern(s, elems, align, ClipLower, 0, 1)
			if cachesim.CountLineVisits(e, elems, align) != cachesim.CountLineVisits(s, elems, align) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExtendPatternNoNewMisses verifies, via the cache simulator, that an
// extended SpMV triggers exactly the same number of x-access misses as the
// original one (the paper's headline mechanism), for caches large enough
// to avoid capacity interference within a row.
func TestExtendPatternNoNewMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := cachesim.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}
	for trial := 0; trial < 10; trial++ {
		n := 200 + rng.Intn(200)
		rows := make([][]int, n)
		for i := 0; i < n; i++ {
			rows[i] = append(rows[i], i)
			for k := 0; k < rng.Intn(4); k++ {
				rows[i] = append(rows[i], rng.Intn(i+1))
			}
		}
		s := pattern.FromRows(n, n, rows)
		align := rng.Intn(8)
		e := ExtendPattern(s, 8, align, ClipLower, 0, 1)
		c := cachesim.New(cfg)
		mBase := cachesim.TraceSpMV(c, s, cachesim.TraceOptions{AlignElems: align})
		mExt := cachesim.TraceSpMV(c, e, cachesim.TraceOptions{AlignElems: align})
		if mExt != mBase {
			t.Fatalf("trial %d: extension changed misses %d -> %d", trial, mBase, mExt)
		}
	}
}

func TestExtendPatternMaxRowCap(t *testing.T) {
	// A scattered row that would explode to 64 entries is capped.
	rows := [][]int{{0}}
	for i := 1; i < 64; i++ {
		rows = append(rows, []int{0, i * 0, i}) // mix; keep diagonal
	}
	scat := make([]int, 0)
	for j := 0; j < 64; j += 8 {
		scat = append(scat, j)
	}
	scat = append(scat, 63)
	rows[63] = scat
	s := pattern.FromRows(64, 64, rows)
	capped := ExtendPattern(s, 8, 0, ClipLower, 16, 1)
	if got := len(capped.Row(63)); got > 24 {
		t.Errorf("row 63 = %d entries, cap not effective", got)
	}
	// Base entries always survive.
	if !s.SubsetOf(capped) {
		t.Error("cap dropped base entries")
	}
	uncapped := ExtendPattern(s, 8, 0, ClipLower, 0, 1)
	if uncapped.NNZ() <= capped.NNZ() {
		t.Error("uncapped should be strictly larger")
	}
}

func TestRandomExtendPattern(t *testing.T) {
	base := pattern.FromRows(64, 64, diagRows(64))
	rng := rand.New(rand.NewSource(7))
	ext := RandomExtendPattern(base, 100, rng, ClipLower)
	if err := ext.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ext.NNZ() - base.NNZ(); got != 100 {
		t.Errorf("added %d entries, want 100", got)
	}
	if !base.SubsetOf(ext) {
		t.Error("base entries lost")
	}
	// Lower-triangular clip respected.
	for i := 0; i < ext.Rows; i++ {
		for _, j := range ext.Row(i) {
			if j > i {
				t.Fatalf("entry (%d,%d) above diagonal", i, j)
			}
		}
	}
	// Deterministic per seed.
	ext2 := RandomExtendPattern(base, 100, rand.New(rand.NewSource(7)), ClipLower)
	if !ext.Equal(ext2) {
		t.Error("random extension not deterministic per seed")
	}
}

func TestRandomExtendPatternSaturates(t *testing.T) {
	// Asking for more entries than free positions must terminate.
	base := pattern.FromRows(4, 4, diagRows(4))
	rng := rand.New(rand.NewSource(8))
	ext := RandomExtendPattern(base, 1000, rng, ClipLower)
	if ext.NNZ() > 10 { // full lower triangle of 4x4
		t.Errorf("nnz=%d beyond full triangle", ext.NNZ())
	}
}

func diagRows(n int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = []int{i}
	}
	return rows
}
