package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// testKeys generates n synthetic matrix fingerprints (hex SHA-256, like
// sparse.CSR fingerprints).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("matrix-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func shards(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:7474", i+1)
	}
	return out
}

// TestRingBalance pins the distribution bound the vnode count was chosen
// for: across 8 shards, every shard's share of 4096 keys stays within
// ±15% of the fair share.
func TestRingBalance(t *testing.T) {
	r := cluster.NewRing(0)
	nodes := shards(8)
	for _, n := range nodes {
		r.Add(n)
	}
	keys := testKeys(4096)
	counts := map[string]int{}
	for _, k := range keys {
		own := r.Place(k, 1)
		if len(own) != 1 {
			t.Fatalf("Place(%q, 1) = %v, want one owner", k, own)
		}
		counts[own[0]]++
	}
	fair := float64(len(keys)) / float64(len(nodes))
	for _, n := range nodes {
		dev := (float64(counts[n]) - fair) / fair
		if dev > 0.15 || dev < -0.15 {
			t.Errorf("shard %s owns %d keys (%.1f%% from fair share %.0f), want within ±15%%",
				n, counts[n], 100*dev, fair)
		}
	}
}

// TestRingMinimalRemap pins the consistent-hashing property: removing one
// of N shards moves only that shard's keys (~1/N of the total), adding a
// shard moves only the keys it takes over.
func TestRingMinimalRemap(t *testing.T) {
	r := cluster.NewRing(0)
	nodes := shards(8)
	for _, n := range nodes {
		r.Add(n)
	}
	keys := testKeys(4096)
	before := map[string]string{}
	for _, k := range keys {
		before[k] = r.Place(k, 1)[0]
	}

	victim := nodes[3]
	r.Remove(victim)
	moved := 0
	for _, k := range keys {
		after := r.Place(k, 1)[0]
		if after == victim {
			t.Fatalf("key %q still placed on removed shard %s", k, victim)
		}
		if after != before[k] {
			if before[k] != victim {
				t.Errorf("key %q moved %s -> %s though neither is the removed shard",
					k, before[k], after)
			}
			moved++
		}
	}
	// Exactly the victim's keys move; with ±15% balance that is at most
	// ~1.15/N of all keys.
	maxMoved := int(1.2 * float64(len(keys)) / float64(len(nodes)))
	if moved > maxMoved {
		t.Errorf("removal moved %d of %d keys, want <= %d (~1/N)", moved, len(keys), maxMoved)
	}

	// Re-adding restores the original placement exactly (determinism), and
	// the only keys that move back are the victim's.
	r.Add(victim)
	for _, k := range keys {
		if got := r.Place(k, 1)[0]; got != before[k] {
			t.Fatalf("after re-add, key %q placed on %s, want %s", k, got, before[k])
		}
	}
}

// TestRingDeterministicAcrossRestarts pins that two independently built
// rings (different insertion orders — a restart never replays the same
// order) place every key identically.
func TestRingDeterministicAcrossRestarts(t *testing.T) {
	nodes := shards(5)
	r1 := cluster.NewRing(0)
	for _, n := range nodes {
		r1.Add(n)
	}
	r2 := cluster.NewRing(0)
	for i := len(nodes) - 1; i >= 0; i-- {
		r2.Add(nodes[i])
	}
	for _, k := range testKeys(512) {
		p1 := r1.Place(k, 3)
		p2 := r2.Place(k, 3)
		if len(p1) != len(p2) {
			t.Fatalf("placement lengths differ for %q: %v vs %v", k, p1, p2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("placement differs for %q: %v vs %v", k, p1, p2)
			}
		}
	}
}

// TestRingPlaceDistinct pins that replica placement returns distinct
// shards, primary first, and degrades gracefully when fewer shards than
// replicas exist.
func TestRingPlaceDistinct(t *testing.T) {
	r := cluster.NewRing(0)
	for _, n := range shards(3) {
		r.Add(n)
	}
	for _, k := range testKeys(64) {
		own := r.Place(k, 5)
		if len(own) != 3 {
			t.Fatalf("Place(%q, 5) on 3 shards = %v, want all 3", k, own)
		}
		seen := map[string]bool{}
		for _, n := range own {
			if seen[n] {
				t.Fatalf("Place(%q, 5) returned duplicate %s: %v", k, n, own)
			}
			seen[n] = true
		}
	}
	if got := cluster.NewRing(0).Place("anything", 2); got != nil {
		t.Fatalf("empty ring Place = %v, want nil", got)
	}
}
