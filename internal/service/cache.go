package service

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	fsai "repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// CachedPrecond is one cache entry: a computed FSAI-family factor and what
// its setup cost. The factor is immutable data that every solve applies on
// its own engine and scratch, so all solves that hit the entry share P
// itself.
type CachedPrecond struct {
	Key     string
	P       *fsai.Preconditioner
	SetupNS int64

	// baselineIters is the CG iteration count of the first converged solve
	// that used this factor (set-once). Warm solves compare against it to
	// flag iteration-count anomalies: the factor still converges, but a
	// drifting count means it no longer preconditions like it used to.
	// 0 means "no baseline yet".
	baselineIters atomic.Int64
}

// SetBaselineIters records the entry's iteration baseline if none is set
// yet; later calls are no-ops (the first converged solve defines "normal").
func (e *CachedPrecond) SetBaselineIters(iters int) {
	if e == nil || iters <= 0 {
		return
	}
	e.baselineIters.CompareAndSwap(0, int64(iters))
}

// BaselineIters returns the recorded baseline (0: none yet).
func (e *CachedPrecond) BaselineIters() int {
	if e == nil {
		return 0
	}
	return int(e.baselineIters.Load())
}

// IterAnomalyFactor is how far above the baseline a warm solve's iteration
// count must drift to be flagged (with IterAnomalySlack absolute headroom so
// tiny baselines don't flag on ±1-iteration noise).
const (
	IterAnomalyFactor = 1.5
	IterAnomalySlack  = 10
)

// IterationAnomaly reports whether iters is anomalous against baseline.
func IterationAnomaly(baseline, iters int) bool {
	if baseline <= 0 {
		return false
	}
	return float64(iters) > float64(baseline)*IterAnomalyFactor+IterAnomalySlack
}

// buildCall tracks one in-flight setup so concurrent requests for the same
// key coalesce onto a single computation instead of racing N setups.
type buildCall struct {
	done chan struct{}
	e    *CachedPrecond
	err  error
}

// PrecondCache is the LRU preconditioner cache keyed by
// (matrix fingerprint, setup options): the piece that makes warm solves
// skip the paper's dominant cost phase entirely. All methods are safe for
// concurrent use; misses for the same key are deduplicated (single-flight).
type PrecondCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *CachedPrecond
	items    map[string]*list.Element
	building map[string]*buildCall

	// The registry's service.cache.* series are the only count: Stats and
	// /metrics read the same values. Nil when the cache counts nothing.
	hits, misses, evictions *telemetry.Counter
	entries                 *telemetry.Gauge

	// evictHook observes every key leaving the cache (LRU overflow,
	// EvictMatrix, EvictOldest). The server points it at the durable store
	// so disk state mirrors cache state. Always invoked OUTSIDE c.mu — the
	// hook does disk IO.
	evictHook func(keys ...string)
}

// NewPrecondCache returns a cache holding at most capacity factors
// (capacity < 1 is treated as 1). reg holds the service.cache.* counters
// and gauge that Stats reports; a nil reg turns counting off.
func NewPrecondCache(capacity int, reg *telemetry.Registry) *PrecondCache {
	if capacity < 1 {
		capacity = 1
	}
	reg.SetHelp("service_cache_hits", "preconditioner cache lookups served without a build (one per job group or FSAI rung, not per job)")
	reg.SetHelp("service_cache_misses", "preconditioner cache lookups that ran a setup build")
	reg.SetHelp("service_cache_evictions", "preconditioner cache LRU evictions")
	reg.SetHelp("service_cache_entries", "preconditioner factors currently cached")
	return &PrecondCache{
		capacity:  capacity,
		ll:        list.New(),
		items:     map[string]*list.Element{},
		building:  map[string]*buildCall{},
		hits:      reg.Counter("service.cache.hits"),
		misses:    reg.Counter("service.cache.misses"),
		evictions: reg.Counter("service.cache.evictions"),
		entries:   reg.Gauge("service.cache.entries"),
	}
}

// PrecondKey builds the canonical cache key for a matrix fingerprint and
// the request knobs the named factor reads (fsai.NamedKnobs): the filter
// and line size unless it is the unextended "fsai", the pattern power and
// tau unless its base pattern is adaptive. Worker count is deliberately
// excluded: the factor's values do not depend on setup parallelism (each
// row's local system is solved independently), so one cached factor serves
// any worker configuration.
func PrecondKey(fingerprint string, req *SolveRequest) string {
	switch extension, apriori := fsai.NamedKnobs(req.Precond); {
	case !extension:
		return fmt.Sprintf("%s|%s|pow=%d|tau=%g", fingerprint, req.Precond, req.PatternPower, req.Tau)
	case !apriori:
		return fmt.Sprintf("%s|%s|f=%g|line=%d", fingerprint, req.Precond, req.setupFilter(), req.LineBytes)
	default:
		return fmt.Sprintf("%s|%s|f=%g|line=%d|pow=%d|tau=%g",
			fingerprint, req.Precond, req.setupFilter(), req.LineBytes, req.PatternPower, req.Tau)
	}
}

// GetOrBuild returns the cached factor for key, computing it with build on
// a miss. Concurrent misses for the same key wait for the first builder and
// count as hits (they paid no setup). ctx bounds only the waiting — an
// in-flight build runs to completion so its result can serve later jobs
// even when the triggering client gave up. A build that panics fails like
// one that errs, with a *parallel.PanicError, and the next miss rebuilds.
func (c *PrecondCache) GetOrBuild(ctx context.Context, key string, build func() (*CachedPrecond, error)) (e *CachedPrecond, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*CachedPrecond)
		c.mu.Unlock()
		c.hits.Inc()
		return e, true, nil
	}
	if call, ok := c.building[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if call.err != nil {
			return nil, false, call.err
		}
		c.hits.Inc()
		return call.e, true, nil
	}
	call := &buildCall{done: make(chan struct{})}
	c.building[key] = call
	c.mu.Unlock()

	func() {
		// A panicking build must still release the key below; its panic
		// becomes the builder's and every waiter's error.
		defer func() {
			if v := recover(); v != nil {
				call.e, call.err = nil, &parallel.PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		call.e, call.err = build()
	}()
	if call.e != nil {
		call.e.Key = key
	}

	c.mu.Lock()
	delete(c.building, key)
	var evicted []string
	if call.err == nil {
		evicted = c.insertLocked(key, call.e)
	}
	hook := c.evictHook
	c.mu.Unlock()
	close(call.done)
	if hook != nil && len(evicted) > 0 {
		hook(evicted...)
	}

	c.misses.Inc()
	return call.e, false, call.err
}

// SetEvictHook registers fn to observe evicted keys. Must be set before the
// cache serves traffic.
func (c *PrecondCache) SetEvictHook(fn func(keys ...string)) {
	c.mu.Lock()
	c.evictHook = fn
	c.mu.Unlock()
}

// Put inserts an already-computed entry (rehydration from the durable
// store). It counts neither a hit nor a miss, and respects capacity like
// any insert.
func (c *PrecondCache) Put(key string, e *CachedPrecond) {
	e.Key = key
	c.mu.Lock()
	evicted := c.insertLocked(key, e)
	hook := c.evictHook
	c.mu.Unlock()
	if hook != nil && len(evicted) > 0 {
		hook(evicted...)
	}
}

// Contains reports whether key is resident, without touching LRU order or
// the hit/miss counters. The degradation layer uses it to tell warm
// requests (serve: nearly free) from cold ones (shed: setup is the
// expensive, allocation-heavy phase).
func (c *PrecondCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// insertLocked adds an entry at the LRU front and evicts beyond capacity,
// returning the evicted keys. Caller holds c.mu and must run the evict
// hook on the returned keys after unlocking.
func (c *PrecondCache) insertLocked(key string, e *CachedPrecond) []string {
	if el, ok := c.items[key]; ok {
		// A concurrent builder lost a race with an eviction+rebuild; keep
		// the resident entry.
		c.ll.MoveToFront(el)
		return nil
	}
	c.items[key] = c.ll.PushFront(e)
	var evicted []string
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		old := oldest.Value.(*CachedPrecond)
		c.ll.Remove(oldest)
		delete(c.items, old.Key)
		evicted = append(evicted, old.Key)
		c.evictions.Inc()
	}
	c.entries.Set(float64(c.ll.Len()))
	return evicted
}

// EvictMatrix drops every cached factor whose key belongs to the given
// matrix fingerprint, returning how many were removed. Used when a matrix
// is unregistered.
func (c *PrecondCache) EvictMatrix(fingerprint string) int {
	prefix := fingerprint + "|"
	c.mu.Lock()
	var evicted []string
	for key, el := range c.items {
		if strings.HasPrefix(key, prefix) {
			c.ll.Remove(el)
			delete(c.items, key)
			evicted = append(evicted, key)
		}
	}
	n := len(evicted)
	if n > 0 {
		c.evictions.Add(int64(n))
		c.entries.Set(float64(c.ll.Len()))
	}
	hook := c.evictHook
	c.mu.Unlock()
	if hook != nil && n > 0 {
		hook(evicted...)
	}
	return n
}

// EvictOldest drops up to n least-recently-used entries, returning how many
// were removed. The degradation layer calls it under memory pressure to
// give factor memory back before the watermark becomes an OOM.
func (c *PrecondCache) EvictOldest(n int) int {
	c.mu.Lock()
	var evicted []string
	for len(evicted) < n {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		old := oldest.Value.(*CachedPrecond)
		c.ll.Remove(oldest)
		delete(c.items, old.Key)
		evicted = append(evicted, old.Key)
	}
	if len(evicted) > 0 {
		c.evictions.Add(int64(len(evicted)))
		c.entries.Set(float64(c.ll.Len()))
	}
	hook := c.evictHook
	c.mu.Unlock()
	if hook != nil && len(evicted) > 0 {
		hook(evicted...)
	}
	return len(evicted)
}

// Len returns the number of cached factors.
func (c *PrecondCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reads the cache's registry series: the numbers /metrics renders.
func (c *PrecondCache) Stats() CacheStats {
	return CacheStats{
		Entries:   int(c.entries.Value()),
		Capacity:  c.capacity,
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
	}
}
