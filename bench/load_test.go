package main

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestClosedLoopRunsEveryConnection(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	numbers := map[int]bool{}
	closedLoop(2, 20*time.Millisecond, func(c, i int) {
		time.Sleep(time.Millisecond)
		mu.Lock()
		seen[c]++
		numbers[i] = true
		mu.Unlock()
	})
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("requests per connection %v, want both connections used", seen)
	}
	for i := range numbers {
		if i >= len(numbers) {
			t.Fatalf("request numbers %v are not 0..%d", numbers, len(numbers)-1)
		}
	}
}

// Every cold key appears once per cycle, so between two requests for it
// come the other cold keys, more than the cache entries the hot keys leave
// free: each cold request misses.
func TestMixedSequence(t *testing.T) {
	hot := []solveKey{{matrix: "a"}, {matrix: "b"}}
	seq, cold := mixedSequence(rand.New(rand.NewSource(3)), hot)
	again, _ := mixedSequence(rand.New(rand.NewSource(3)), hot)
	if !reflect.DeepEqual(seq, again) {
		t.Fatal("the same seed gave different sequences")
	}
	other, _ := mixedSequence(rand.New(rand.NewSource(4)), hot)
	if reflect.DeepEqual(seq, other) {
		t.Fatal("different seeds gave the same sequence")
	}
	keys := coldKeys()
	const daemonCacheEntries = 16 // fsaid's default -cache
	if len(keys)-1 <= daemonCacheEntries-len(hotMatrices) {
		t.Fatalf("%d cold keys: a repeat could still be cached", len(keys))
	}
	if len(seq) != 10*len(keys) {
		t.Fatalf("cycle of %d requests, want 10 per cold key (%d)", len(seq), 10*len(keys))
	}
	times := map[solveKey]int{}
	for i, k := range seq {
		if cold[i] {
			times[k]++
		} else if k != hot[0] && k != hot[1] {
			t.Fatalf("warm slot %d holds %v", i, k)
		}
	}
	for _, k := range keys {
		if times[k] != 1 {
			t.Errorf("cold key %v appears %d times per cycle, want 1", k, times[k])
		}
	}
}
