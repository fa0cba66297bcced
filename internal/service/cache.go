package service

import (
	"math"
	"math/bits"
	"sync/atomic"

	"epfis/internal/core"
)

// memoKey identifies one Est-IO computation. The catalog generation is part
// of the key, so installing or reloading statistics invalidates stale memo
// entries implicitly — no explicit flush, and a reader racing a reload can
// never be served an estimate from the wrong statistics version. Table and
// column are kept as separate fields (not concatenated) so building a key on
// the serving hot path performs no allocation.
type memoKey struct {
	table  string
	column string
	gen    uint64
	b      int64
	sigma  float64
	sarg   float64
}

// memoEntry is one published cache record. Entries are immutable after
// publication: replacement stores a fresh entry rather than mutating, so a
// reader holding a pointer always sees a consistent (key, estimate) pair.
type memoEntry struct {
	key memoKey
	est core.Estimate
}

// memoWindow is the open-addressing probe window: a key may live in any of
// the memoWindow slots starting at its home index. It doubles as the CLOCK
// eviction arena — when the window is full, the insert sweeps it once,
// granting second chances (clearing reference bits) until it finds a victim.
const memoWindow = 8

// memoCache is a fixed-size open-addressed memo for Est-IO results.
// Optimizers re-cost identical plan shapes constantly (same index, same
// buffer budget, same selectivity buckets), so even a small memo absorbs most
// of the estimate traffic.
//
// Unlike the earlier mutex+map+container/list LRU, every slot is a single
// atomic pointer with an adjacent atomic reference bit:
//
//   - get is a hash plus at most memoWindow atomic loads — no locks, no
//     allocation, and readers never contend with each other;
//   - put publishes one freshly allocated immutable entry with an atomic
//     store (the only allocation in the cache, paid on misses);
//   - eviction is CLOCK (second chance) within the probe window instead of
//     global LRU — an approximation that costs O(window) atomics instead of
//     a locked list splice.
//
// The table size is fixed at construction (rounded up to a power of two), so
// the cache can never grow past its configured capacity.
type memoCache struct {
	slots []atomic.Pointer[memoEntry]
	ref   []atomic.Uint32 // CLOCK reference bits, parallel to slots
	mask  uint64          // len(slots) - 1

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64 // entries removed by explicit sweeps
}

// newMemoCache builds a cache with at least total slots (rounded up to a
// power of two, minimum one probe window).
func newMemoCache(total int) *memoCache {
	if total < memoWindow {
		total = memoWindow
	}
	size := 1 << bits.Len(uint(total-1)) // next power of two >= total
	return &memoCache{
		slots: make([]atomic.Pointer[memoEntry], size),
		ref:   make([]atomic.Uint32, size),
		mask:  uint64(size - 1),
	}
}

// hash is FNV-1a over the key's fields with a final avalanche mix. Inlined
// byte loops over the two strings keep it allocation-free.
func (k *memoKey) hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(k.table); i++ {
		h = (h ^ uint64(k.table[i])) * prime
	}
	h = (h ^ '.') * prime
	for i := 0; i < len(k.column); i++ {
		h = (h ^ uint64(k.column[i])) * prime
	}
	for _, w := range [4]uint64{k.gen, uint64(k.b), math.Float64bits(k.sigma), math.Float64bits(k.sarg)} {
		h = (h ^ (w & 0xff)) * prime
		h = (h ^ (w >> 8 & 0xffff)) * prime
		h = (h ^ (w >> 24)) * prime
	}
	// splitmix64-style finalizer so adjacent b values spread across slots.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (c *memoCache) get(k memoKey) (core.Estimate, bool) {
	home := k.hash()
	for i := uint64(0); i < memoWindow; i++ {
		slot := (home + i) & c.mask
		e := c.slots[slot].Load()
		if e != nil && e.key == k {
			if c.ref[slot].Load() == 0 {
				c.ref[slot].Store(1) // second-chance bit for CLOCK
			}
			c.hits.Add(1)
			return e.est, true
		}
	}
	c.misses.Add(1)
	return core.Estimate{}, false
}

func (c *memoCache) put(k memoKey, est core.Estimate) {
	e := &memoEntry{key: k, est: est}
	home := k.hash()
	// First pass: take over the key's existing slot, or claim an empty one.
	for i := uint64(0); i < memoWindow; i++ {
		slot := (home + i) & c.mask
		cur := c.slots[slot].Load()
		if cur != nil && cur.key == k {
			c.slots[slot].Store(e)
			c.ref[slot].Store(1)
			return
		}
		if cur == nil && c.slots[slot].CompareAndSwap(nil, e) {
			c.ref[slot].Store(1)
			return
		}
	}
	// Window full: CLOCK sweep. Referenced slots get their second chance
	// (bit cleared); the first unreferenced slot is the victim. If every
	// slot was referenced, the home slot — now cleared — is overwritten.
	victim := home & c.mask
	for i := uint64(0); i < memoWindow; i++ {
		slot := (home + i) & c.mask
		if c.ref[slot].Load() != 0 {
			c.ref[slot].Store(0)
			continue
		}
		victim = slot
		break
	}
	if c.slots[victim].Swap(e) != nil {
		c.evictions.Add(1)
	}
	c.ref[victim].Store(1)
}

// dropOtherGenerations removes entries whose generation differs from gen —
// the post-commit sweep: after a write or merge publishes generation gen,
// every older generation's memo entries are garbage by construction of the
// (index, generation) key, a deleted index's included.
func (c *memoCache) dropOtherGenerations(gen uint64) int {
	return c.sweep(func(k *memoKey) bool { return k.gen != gen })
}

// sweep removes entries matching drop, returning how many were removed. It
// walks every slot with CAS removal, so it is safe against concurrent reads
// and inserts (an entry inserted concurrently after its slot was examined
// simply survives until the next sweep — the generation key keeps it
// unreachable for readers either way).
func (c *memoCache) sweep(drop func(*memoKey) bool) int {
	removed := 0
	for i := range c.slots {
		e := c.slots[i].Load()
		if e == nil || !drop(&e.key) {
			continue
		}
		if c.slots[i].CompareAndSwap(e, nil) {
			removed++
		}
	}
	if removed > 0 {
		c.invalidations.Add(uint64(removed))
	}
	return removed
}

// len reports the live entry count.
func (c *memoCache) len() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].Load() != nil {
			n++
		}
	}
	return n
}
