// Package cluster turns N fsaid processes into one logical solve service:
// a consistent-hash ring places every matrix fingerprint on a primary shard
// plus R replicas, a static membership list with per-peer health probing
// feeds a healthy/degraded/ejected state machine, and a Router accepts the
// existing /api/v1 HTTP/JSON API unchanged — forwarding register, solve and
// delete to the owning shard, failing over to a replica on transport error
// or shard health failure, and warming hot preconditioners onto replicas.
//
// The paper's cache-aware FSAI wins are per-node; this layer is the
// horizontal-capacity step (ROADMAP item 1). It deliberately reuses the
// protocols the single daemon already speaks: the 429/Retry-After contract
// becomes inter-node backpressure, the idempotency key makes forwarded
// retries exactly-once, the W3C traceparent stitches one request's spans
// across router and shard, and the store-backed shards rehydrate warm after
// a crash, so failover and rebalance recover cached factors instead of
// recomputing them.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the per-node virtual-node count. 160 points per node
// keeps the key distribution across 8 shards within the ±15% band the ring
// tests assert while staying cheap to rebuild on membership change.
const DefaultVNodes = 160

// vnode is one point on the ring: a hash position owned by a node.
type vnode struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Placement is
// deterministic: positions derive from SHA-256 of "<node>#<index>", so the
// same membership yields the same ring in every process and across
// restarts — a router restart never reshuffles the fleet. All methods are
// safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  map[string]struct{}
	ring   []vnode // sorted by hash
}

// NewRing returns an empty ring with the given virtual-node count per node
// (<=0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: map[string]struct{}{}}
}

// hash64 maps a string to a ring position: the first 8 bytes of its
// SHA-256. Cryptographic diffusion is what makes 160 vnodes enough for the
// balance bound; determinism is what makes placement stable across
// processes.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node's virtual nodes. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.ring = append(r.ring, vnode{hash: hash64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
}

// Remove deletes a node's virtual nodes. Removing an absent node is a
// no-op. Only keys whose owning arcs belonged to the removed node move —
// the minimal-remap property the ring tests pin down.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.ring[:0]
	for _, v := range r.ring {
		if v.node != node {
			kept = append(kept, v)
		}
	}
	r.ring = kept
}

// Nodes returns the current members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// VNodes returns the per-node virtual-node count.
func (r *Ring) VNodes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.vnodes
}

// Len returns the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Place returns the n distinct nodes owning key, primary first: the ring is
// walked clockwise from the key's hash and each newly encountered node is
// appended. Fewer than n members yields all of them. An empty ring yields
// nil.
func (r *Ring) Place(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.ring) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	var out []string
	seen := map[string]struct{}{}
	for i := 0; i < len(r.ring) && len(out) < n; i++ {
		v := r.ring[(start+i)%len(r.ring)]
		if _, dup := seen[v.node]; dup {
			continue
		}
		seen[v.node] = struct{}{}
		out = append(out, v.node)
	}
	return out
}
