package service

import (
	"fmt"
	"sync"
	"testing"

	"epfis/internal/core"
)

func TestMemoCacheHitMissAndGenerationKeying(t *testing.T) {
	c := newMemoCache(64)
	k1 := memoKey{table: "t", column: "a", gen: 1, b: 10, sigma: 0.1, sarg: 1}
	if _, ok := c.get(k1); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k1, core.Estimate{F: 42})
	got, ok := c.get(k1)
	if !ok || got.F != 42 {
		t.Fatalf("get after put = (%v, %v)", got.F, ok)
	}
	// Same key, different generation, is a distinct entry.
	k2 := k1
	k2.gen = 2
	if _, ok := c.get(k2); ok {
		t.Fatal("generation bump did not miss")
	}
	// Replacing a live key keeps exactly one entry.
	c.put(k1, core.Estimate{F: 43})
	if got, _ := c.get(k1); got.F != 43 {
		t.Fatalf("replacement not visible, F = %v", got.F)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d after same-key replacement, want 1", n)
	}
	if c.hits.Load() != 2 || c.misses.Load() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", c.hits.Load(), c.misses.Load())
	}
}

// TestMemoCacheClockEviction fills one probe window and checks the CLOCK
// sweep evicts an unreferenced entry rather than growing.
func TestMemoCacheClockEviction(t *testing.T) {
	c := newMemoCache(memoWindow) // table of exactly one window
	keys := make([]memoKey, memoWindow+1)
	for i := range keys {
		keys[i] = memoKey{table: "t", column: fmt.Sprintf("c%d", i), gen: 1, b: 1, sigma: 0.5, sarg: 1}
		c.put(keys[i], core.Estimate{F: float64(i)})
	}
	if n := c.len(); n > memoWindow {
		t.Fatalf("cache grew to %d entries, capacity %d", n, memoWindow)
	}
	if c.evictions.Load() == 0 {
		t.Fatal("overflow did not evict")
	}
	// The newest insert is always resident.
	last := keys[len(keys)-1]
	if got, ok := c.get(last); !ok || got.F != float64(memoWindow) {
		t.Fatalf("newest entry = (%v, %v)", got.F, ok)
	}
}

// TestMemoCacheSweeps covers the explicit removal path every commit runs:
// once a commit publishes a generation, every other generation's entries
// go, a deleted index's included, and the current generation's stay.
func TestMemoCacheSweeps(t *testing.T) {
	c := newMemoCache(256)
	put := func(table, column string, gen uint64, b int64) memoKey {
		k := memoKey{table: table, column: column, gen: gen, b: b, sigma: 0.25, sarg: 1}
		c.put(k, core.Estimate{F: float64(b)})
		return k
	}
	kOrders1 := put("orders", "key", 1, 10)
	kOrders2 := put("orders", "key", 2, 10)
	kLine := put("lineitem", "partkey", 2, 20)
	kDeleted := put("deleted", "col", 1, 30)

	if n := c.dropOtherGenerations(2); n != 2 {
		t.Fatalf("dropOtherGenerations removed %d entries, want 2", n)
	}
	for _, k := range []memoKey{kOrders1, kDeleted} {
		if _, ok := c.get(k); ok {
			t.Fatalf("older-generation entry %s.%s@%d still served", k.table, k.column, k.gen)
		}
	}
	if got, ok := c.get(kOrders2); !ok || got.F != 10 {
		t.Fatal("current-generation entry swept away")
	}
	if got, ok := c.get(kLine); !ok || got.F != 20 {
		t.Fatal("current-generation entry swept away")
	}
	if c.invalidations.Load() != 2 {
		t.Fatalf("invalidations = %d, want 2", c.invalidations.Load())
	}
}

func TestMemoCacheBoundedUnderLoad(t *testing.T) {
	const capacity = 64
	c := newMemoCache(capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := memoKey{table: "orders", column: "key", gen: uint64(g), b: int64(i % 100), sigma: 0.1, sarg: 1}
				c.put(k, core.Estimate{F: float64(i)})
				if est, ok := c.get(k); ok && est.F != float64(i) {
					// A concurrent writer may have replaced the same key, but
					// a hit must never return a (key, value) mismatch.
					if est.F < 0 || est.F >= 500 {
						t.Errorf("torn read: F = %v", est.F)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", n, capacity)
	}
}

// TestMemoCacheZeroAllocGet proves the read path allocates nothing.
func TestMemoCacheZeroAllocGet(t *testing.T) {
	c := newMemoCache(64)
	k := memoKey{table: "orders", column: "key", gen: 1, b: 10, sigma: 0.1, sarg: 1}
	c.put(k, core.Estimate{F: 7})
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.get(k); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("get allocates %v/op, want 0", n)
	}
}
