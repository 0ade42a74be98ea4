package service

// Idempotency index: the server half of safe solve retries. A client retry
// races its own earlier attempt — the response may have been lost after the
// solve completed, or the attempt may still be running. Keyed by the
// client-chosen Idempotency-Key header, the index resolves both races:
//
//   - a retry of a COMPLETED request replays the stored response (marked
//     Replayed) instead of re-executing a solve the client already paid for;
//   - a retry of an IN-FLIGHT request waits for the original execution and
//     replays its result — the solve runs exactly once server-side;
//   - a retry of a FAILED/REJECTED attempt re-executes: failures are not
//     cached, so transient rejections (429) stay retryable.

import (
	"container/list"
	"context"
	"sync"
)

// idemEntry tracks one idempotency key's lifecycle. done closes when the
// owning request finishes; resp is non-nil only for a completed success.
type idemEntry struct {
	key  string
	done chan struct{}
	resp *SolveResponse
}

// idemIndex is a bounded LRU of idempotency entries. Completed responses
// are retained up to capacity; in-flight entries are pinned (never evicted)
// so a waiter can't lose its rendezvous.
type idemIndex struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // completed entries only, front = most recent
	items map[string]*list.Element
	live  map[string]*idemEntry // in-flight (owner still executing)
}

func newIdemIndex(capacity int) *idemIndex {
	if capacity < 1 {
		capacity = 256
	}
	return &idemIndex{
		cap:   capacity,
		ll:    list.New(),
		items: map[string]*list.Element{},
		live:  map[string]*idemEntry{},
	}
}

// claim resolves key to its entry. owner=true means the caller must execute
// the request and finish with complete or abort; owner=false means another
// request owns (or owned) the key — wait on entry.done, then read resp.
func (x *idemIndex) claim(key string) (e *idemEntry, owner bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if el, ok := x.items[key]; ok {
		x.ll.MoveToFront(el)
		return el.Value.(*idemEntry), false
	}
	if e, ok := x.live[key]; ok {
		return e, false
	}
	e = &idemEntry{key: key, done: make(chan struct{})}
	x.live[key] = e
	return e, true
}

// complete stores the owner's successful response and releases waiters.
func (x *idemIndex) complete(e *idemEntry, resp *SolveResponse) {
	x.mu.Lock()
	e.resp = resp
	delete(x.live, e.key)
	x.items[e.key] = x.ll.PushFront(e)
	for x.ll.Len() > x.cap {
		oldest := x.ll.Back()
		old := oldest.Value.(*idemEntry)
		x.ll.Remove(oldest)
		delete(x.items, old.Key())
	}
	x.mu.Unlock()
	close(e.done)
}

// abort drops the owner's claim without storing anything: the next request
// with this key executes fresh. Waiters observe resp == nil.
func (x *idemIndex) abort(e *idemEntry) {
	x.mu.Lock()
	delete(x.live, e.key)
	x.mu.Unlock()
	close(e.done)
}

// await blocks until the entry's owner finishes (or ctx expires) and
// returns the stored response; nil means the owner failed and the caller
// should tell its client to retry.
func (x *idemIndex) await(ctx context.Context, e *idemEntry) (*SolveResponse, error) {
	select {
	case <-e.done:
		return e.resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (e *idemEntry) Key() string { return e.key }

// replayCopy returns the response to serve a duplicate request: the
// original job's result with the replay marker set. A shallow copy is
// enough — the stored response is never mutated after complete.
func replayCopy(orig *SolveResponse) *SolveResponse {
	cp := *orig
	cp.Replayed = true
	return &cp
}
