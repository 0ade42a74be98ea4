package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fsai "repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

func testFactor(t *testing.T) *fsai.Preconditioner {
	t.Helper()
	a := matgen.Laplace2D(8, 8)
	p, err := fsai.Compute(a, fsai.Options{Variant: fsai.VariantFSAI, Workers: 1})
	if err != nil {
		t.Fatalf("factor: %v", err)
	}
	return p
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewPrecondCache(4, telemetry.NewRegistry())
	p := testFactor(t)
	var builds atomic.Int64
	gate := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	entries := make([]*CachedPrecond, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := c.GetOrBuild(context.Background(), "k", func() (*CachedPrecond, error) {
				builds.Add(1)
				<-gate // hold the build so every goroutine piles up on it
				return &CachedPrecond{P: p, SetupNS: 42}, nil
			})
			if err != nil {
				t.Errorf("GetOrBuild: %v", err)
			}
			entries[i], hits[i] = e, hit
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters subscribe
	close(gate)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1 (single-flight)", got)
	}
	misses := 0
	for i := range entries {
		if entries[i] == nil || entries[i].P != p {
			t.Fatalf("goroutine %d got entry %+v", i, entries[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1 (the builder)", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != int64(n-1) || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewPrecondCache(2, telemetry.NewRegistry())
	p := testFactor(t)
	build := func() (*CachedPrecond, error) { return &CachedPrecond{P: p}, nil }
	ctx := context.Background()

	for _, k := range []string{"a|x", "b|x", "a|x", "c|x"} {
		if _, _, err := c.GetOrBuild(ctx, k, build); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2 and "a" was touched after "b": inserting "c" evicts "b".
	if _, hit, _ := c.GetOrBuild(ctx, "a|x", build); !hit {
		t.Fatal("recently-used entry was evicted")
	}
	if _, hit, _ := c.GetOrBuild(ctx, "b|x", build); hit {
		t.Fatal("LRU entry survived over-capacity insert")
	}
	if st := c.Stats(); st.Evictions < 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := NewPrecondCache(2, nil)
	boom := errors.New("boom")
	calls := 0
	build := func() (*CachedPrecond, error) { calls++; return nil, boom }
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, _, err := c.GetOrBuild(ctx, "k", build); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err=%v", i, err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed build cached: %d calls, want 2", calls)
	}
	if c.Len() != 0 {
		t.Fatal("error entry made it into the cache")
	}
}

func TestCacheBuildPanicReleasesKey(t *testing.T) {
	c := NewPrecondCache(2, nil)
	_, _, err := c.GetOrBuild(context.Background(), "k", func() (*CachedPrecond, error) {
		panic("build exploded")
	})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || pe.Value != "build exploded" || len(pe.Stack) == 0 {
		t.Fatalf("builder err=%v, want the panic as *parallel.PanicError", err)
	}
	// The slot is free: the next miss rebuilds instead of waiting forever.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	want := &CachedPrecond{P: testFactor(t)}
	e, hit, err := c.GetOrBuild(ctx, "k", func() (*CachedPrecond, error) { return want, nil })
	if err != nil || hit || e != want {
		t.Fatalf("rebuild after panic: entry=%v hit=%v err=%v", e, hit, err)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewPrecondCache(2, nil)
	p := testFactor(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrBuild(context.Background(), "k", func() (*CachedPrecond, error) {
			close(started)
			<-gate
			return &CachedPrecond{P: p}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.GetOrBuild(ctx, "k", func() (*CachedPrecond, error) {
		t.Error("waiter must not start a second build")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err=%v, want DeadlineExceeded", err)
	}
	close(gate)
	// The abandoned build still lands in the cache for later jobs.
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("completed build never cached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheConcurrentMixedOps is the satellite race drill: concurrent
// get-or-build, eviction by matrix, stats and length reads on overlapping
// keys. Run with -race; correctness here is "no race, no deadlock, and the
// cache never exceeds capacity".
func TestCacheConcurrentMixedOps(t *testing.T) {
	const capacity = 4
	c := NewPrecondCache(capacity, telemetry.NewRegistry())
	p := testFactor(t)
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := fmt.Sprintf("m%d", (g+i)%6)
				key := PrecondKey(fp, &SolveRequest{Precond: "fsai", Filter: 0.01, LineBytes: 64, PatternPower: 1})
				switch i % 5 {
				case 0, 1, 2:
					if _, _, err := c.GetOrBuild(ctx, key, func() (*CachedPrecond, error) {
						return &CachedPrecond{P: p, SetupNS: 1}, nil
					}); err != nil {
						t.Errorf("GetOrBuild: %v", err)
					}
				case 3:
					c.EvictMatrix(fp)
				default:
					_ = c.Stats()
					if n := c.Len(); n > capacity {
						t.Errorf("cache holds %d > capacity %d", n, capacity)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("final cache size %d > capacity %d", n, capacity)
	}
}

// TestRegistryConcurrentRegisterRemove races registration, lookup and
// removal of aliased matrices (run with -race).
func TestRegistryConcurrentRegisterRemove(t *testing.T) {
	reg := NewMatrixRegistry(8)
	mats := []struct{ name string }{{"a"}, {"b"}, {"c"}}
	gen := matgen.Laplace2D(6, 6)
	fp := gen.Fingerprint()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := mats[(g+i)%len(mats)]
				switch i % 4 {
				case 0:
					_, _ = reg.Register(gen, fp, m.name)
				case 1:
					_, _ = reg.Get(m.name)
				case 2:
					_ = reg.List()
				default:
					_, _ = reg.Remove(m.name)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPrecondKeyFormat pins the cache key of every FSAI-family name: the
// fsaie and fsaie-sp keys hold every request knob, byte for byte as the
// keys stores already hold; fsai drops the extension knobs it does not
// read and adaptive the a-priori pattern knobs.
func TestPrecondKeyFormat(t *testing.T) {
	req := SolveRequest{Filter: 0.01, LineBytes: 64, PatternPower: 1}
	for name, want := range map[string]string{
		"fsaie":    "fp|fsaie|f=0.01|line=64|pow=1|tau=0",
		"fsaie-sp": "fp|fsaie-sp|f=0.01|line=64|pow=1|tau=0",
		"fsai":     "fp|fsai|pow=1|tau=0",
		"adaptive": "fp|adaptive|f=0.01|line=64",
	} {
		req.Precond = name
		if got := PrecondKey("fp", &req); got != want {
			t.Errorf("PrecondKey(%s) = %q, want %q", name, got, want)
		}
	}
}
