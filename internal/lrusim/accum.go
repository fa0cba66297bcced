package lrusim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"epfis/internal/storage"
)

// Accum is an incremental, mergeable Mattson stack simulator, and the one
// stack-distance kernel of the package's fast paths: Scratch is an Accum
// reset and fed once per trace, and the ingest pipeline feeds one per index
// batch by batch. Feed may be called any number of times; the fetch curve
// (and everything derived from it: FPF samples, the clustering factor) can
// be read at any point with Curve() without replaying history.
//
// Two Accums can also be combined: a.Merge(b) produces in a the exact state
// of an accumulator that consumed a's stream followed by b's stream. Feed and
// Merge are both bit-identical to TreeSimulator over the concatenated trace
// (property-tested in accum_test.go), so per-shard accumulators — one per
// ingest worker, or one per node — roll up into the same curve the offline
// one-shot pass would have produced.
//
// The kernel keeps one live marker per distinct page, on its latest
// reference. A reference's stack distance is one more than the number of
// markers newer than its page's own. Markers sit in slots handed out in
// reference order, so a bitmap over slots plus a Fenwick tree over the
// popcounts of its 64-bit words gives rank(slot), the markers at or before a
// slot, in one prefix walk: distance = live − rank + 1. When the slots run
// out, the live markers are renumbered in order into an array with at least
// as many free slots as live ones (compaction). So every structure is sized
// by distinct pages, not by stream length, and compaction amortizes to O(1)
// per reference: an Accum fed forever over a fixed page set stops growing
// (TestAccumMemoryBoundedByDistinctPages).
//
// The steady-state Feed path performs zero allocations; growth of the carried
// structures is amortized doubling, so measured allocs/op over any realistic
// batch sequence is ≤ 2 (gated by TestAccumFeedSteadyStateAllocs).
//
// An Accum is not safe for concurrent use.
type Accum struct {
	n      int     // references consumed so far
	counts []int64 // counts[d-1] = references at stack distance d; one per page

	pages []page // by dense page id, in first-sight order

	// Slots: pageAt[s] is the dense id whose marker is in slot s, valid
	// where bit s of live is set; next is the first slot not yet handed
	// out. fen is a 1-based Fenwick tree over the popcounts of live's words.
	pageAt []int32
	live   []uint64
	fen    []int32
	next   int

	// Raw-id remap: a flat table (denseOf[raw] = dense+1, 0 = unseen) while
	// ids stay below max(flatRemapFactor*references, flatRemapFloor), then a
	// map until the next Reset. Both are kept for reuse.
	denseOf []int32
	remap   map[storage.PageID]int32
	sparse  bool
}

// page is one distinct page: its raw id and the slot of its live marker.
type page struct {
	raw  storage.PageID
	slot int32
}

// A raw page id stays in the flat remap table while it is below
// max(flatRemapFactor × references, flatRemapFloor): a short stream with one
// huge id cannot force a giant table, and a table of up to 64k pages stays
// flat however a scan orders its ids. A fresh Accum allocates room for
// minPages pages, then doubles.
const (
	flatRemapFactor = 4
	flatRemapFloor  = 1 << 16
	minPages        = 256
)

// MaxAccumRefs is the reference-count capacity of one Accum (or merge
// result); Feed and Merge panic beyond it, the same way a slice append
// panics past its address space. It bounds distinct pages, and with them the
// 32-bit dense ids and slots. The ingest pipeline also uses it to cap a
// window whose metadata never lets it complete.
const MaxAccumRefs = math.MaxInt32 - 1

// NewAccum returns an empty accumulator.
func NewAccum() *Accum { return &Accum{} }

// Total reports the number of references consumed so far.
func (a *Accum) Total() int64 { return int64(a.n) }

// Distinct reports the number of distinct pages seen so far — the cold-miss
// count, the paper's A for the accumulated stream.
func (a *Accum) Distinct() int64 { return int64(len(a.pages)) }

// MaxPageID reports the largest raw page id seen, or 0 on an empty Accum.
// Callers deriving table metadata from a stream use it as a lower bound on T.
func (a *Accum) MaxPageID() storage.PageID {
	var max storage.PageID
	for _, p := range a.pages {
		if p.raw > max {
			max = p.raw
		}
	}
	return max
}

// Reset returns the accumulator to the empty state, retaining capacity so a
// rotated accumulator re-fills without reallocating. It costs O(distinct
// pages + slots/64), not O(stream).
func (a *Accum) Reset() {
	if a.sparse {
		clear(a.remap)
		a.sparse = false
	} else {
		for _, p := range a.pages {
			a.denseOf[p.raw] = 0
		}
	}
	a.n = 0
	a.counts = a.counts[:0]
	a.pages = a.pages[:0]
	clear(a.live)
	clear(a.fen)
	a.next = 0
}

// Feed consumes one batch of references, extending the accumulated stream.
// The batch may alias a buffer the caller reuses; nothing is retained.
func (a *Accum) Feed(t Trace) {
	if len(t) == 0 {
		return
	}
	if int64(a.n)+int64(len(t)) > MaxAccumRefs {
		panic(fmt.Sprintf("lrusim: Accum overflow: %d+%d references exceed MaxAccumRefs", a.n, len(t)))
	}
	limit := max(flatRemapFactor*(a.n+len(t)), flatRemapFloor)
	for _, pg := range t {
		id, seen := a.lookup(pg)
		if !seen {
			id = a.assign(pg, limit)
		} else {
			s := int(a.pages[id].slot)
			a.counts[len(a.pages)-a.rank(s)]++ // distance live-rank+1
			a.drop(s)
		}
		a.push(id)
	}
	a.n += len(t)
}

// Merge appends b's accumulated stream to a's: afterwards a holds exactly the
// state of an accumulator that consumed a's references followed by b's, and
// a.Curve() equals TreeSimulator over the concatenated trace bit for bit.
// b is read, not modified, and remains usable.
//
// The fix-up is the heart of the operation: a reference that was a cold miss
// within b may have a finite stack distance in the concatenation (its page was
// seen in a). Walking b's distinct pages in first-sight order while retiring
// their a-markers as we go makes that distance exactly
//
//	rank(p in b's first-sight order) + live a-markers after p's + 1
//
// — the earlier b-pages are counted by rank whether or not a knew them, and
// the a-marker count skips exactly the pages already counted, because their
// markers have been retired. Every non-first reference within b keeps the
// distance b already recorded (its reuse window is entirely inside b), so
// b's histogram merges wholesale. Last, a's surviving markers are compacted
// to make room and b's markers are appended after them in b's slot order,
// which is their reference order in the concatenation.
func (a *Accum) Merge(b *Accum) {
	if b.n == 0 {
		return
	}
	if b == a {
		panic("lrusim: Accum.Merge with itself")
	}
	if int64(a.n)+int64(b.n) > MaxAccumRefs {
		panic(fmt.Sprintf("lrusim: Accum overflow: %d+%d references exceed MaxAccumRefs", a.n, b.n))
	}
	limit := max(flatRemapFactor*(a.n+b.n), flatRemapFloor)
	aLive := len(a.pages)
	for r, p := range b.pages {
		id, inA := a.lookup(p.raw)
		if !inA {
			a.assign(p.raw, limit)
			continue
		}
		s := int(a.pages[id].slot)
		a.counts[r+aLive-a.rank(s)]++ // distance r+(aLive-rank)+1
		a.drop(s)
		aLive--
	}
	// Within-b distances are unchanged by prefixing a's stream.
	for i, c := range b.counts {
		a.counts[i] += c
	}
	a.compact(len(b.pages))
	for w, word := range b.live {
		for ; word != 0; word &= word - 1 {
			id, _ := a.lookup(b.pages[b.pageAt[w<<6|bits.TrailingZeros64(word)]].raw)
			a.push(id)
		}
	}
	a.n += b.n
}

// Curve materializes the fetch curve of everything accumulated so far. Only
// the returned FetchCurve and its cumulative array are allocated; the Accum
// keeps accumulating afterwards.
func (a *Accum) Curve() *FetchCurve {
	top := a.maxDist()
	cum := make([]int64, top+1)
	var run int64
	for d := 1; d <= top; d++ {
		run += a.counts[d-1]
		cum[d] = run
	}
	return &FetchCurve{cumHits: cum, cold: a.Distinct(), total: a.Total()}
}

// Histogram materializes the stack-distance histogram accumulated so far.
func (a *Accum) Histogram() *Histogram {
	top := a.maxDist()
	h := &Histogram{Total: a.Total(), Cold: a.Distinct(), Counts: make([]int64, top+1)}
	copy(h.Counts[1:], a.counts[:top])
	return h
}

// maxDist is the largest stack distance recorded so far, 0 if none.
func (a *Accum) maxDist() int {
	d := len(a.counts)
	for d > 0 && a.counts[d-1] == 0 {
		d--
	}
	return d
}

// lookup resolves a raw page id to its dense id without assigning one.
func (a *Accum) lookup(pg storage.PageID) (int32, bool) {
	if a.sparse {
		id, ok := a.remap[pg]
		return id, ok
	}
	if int(pg) < len(a.denseOf) {
		if v := a.denseOf[pg]; v != 0 {
			return v - 1, true
		}
	}
	return 0, false
}

// assign registers a first-sight page and returns its new dense id. An id at
// or past limit moves the remap to the map until the next Reset.
func (a *Accum) assign(pg storage.PageID, limit int) int32 {
	if !a.sparse && int(pg) >= limit {
		if a.remap == nil {
			a.remap = make(map[storage.PageID]int32, 2*len(a.pages))
		}
		for id, p := range a.pages {
			a.remap[p.raw] = int32(id)
			a.denseOf[p.raw] = 0
		}
		a.sparse = true
	}
	id := int32(len(a.pages))
	if len(a.pages) == cap(a.pages) { // double: append's 1.25x reallocates often
		a.pages = slices.Grow(a.pages, max(len(a.pages), minPages))
		a.counts = slices.Grow(a.counts, max(len(a.pages), minPages))
	}
	a.pages = append(a.pages, page{raw: pg})
	a.counts = append(a.counts, 0)
	if a.sparse {
		a.remap[pg] = id
		return id
	}
	if int(pg) >= len(a.denseOf) {
		grown := make([]int32, max(int(pg)+1, 2*len(a.denseOf)))
		copy(grown, a.denseOf)
		a.denseOf = grown
	}
	a.denseOf[pg] = id + 1
	return id
}

// rank counts the live markers in slots 0..s.
func (a *Accum) rank(s int) int {
	w := s >> 6
	r := bits.OnesCount64(a.live[w] << uint(63-s&63))
	for i := w; i > 0; i &= i - 1 {
		r += int(a.fen[i])
	}
	return r
}

// drop clears the live marker in slot s.
func (a *Accum) drop(s int) {
	a.live[s>>6] &^= 1 << uint(s&63)
	for i := s>>6 + 1; i < len(a.fen); i += i & -i {
		a.fen[i]--
	}
}

// push places page id's live marker in the next slot, compacting first when
// the slots have run out.
func (a *Accum) push(id int32) {
	if a.next == len(a.pageAt) {
		a.compact(1)
	}
	s := a.next
	a.next++
	a.pageAt[s] = id
	a.pages[id].slot = int32(s)
	a.live[s>>6] |= 1 << uint(s&63)
	for i := s>>6 + 1; i < len(a.fen); i += i & -i {
		a.fen[i]++
	}
}

// compact renumbers the k live markers, in slot order, into slots 0..k-1,
// so at least max(k, room) slots are free: a refill costs as many references
// as the renumbering it follows. The slot array grows at least twofold, so
// a growing page set reallocates it O(log pages) times.
func (a *Accum) compact(room int) {
	k := 0
	for w, word := range a.live {
		for ; word != 0; word &= word - 1 {
			id := a.pageAt[w<<6|bits.TrailingZeros64(word)]
			a.pageAt[k] = id
			a.pages[id].slot = int32(k)
			k++
		}
	}
	if size := k + max(k, room); size > len(a.pageAt) {
		size = min((max(size, 2*len(a.pageAt))+63)&^63, math.MaxInt32)
		grown := make([]int32, size)
		copy(grown, a.pageAt[:k])
		a.pageAt = grown
		a.live = make([]uint64, (size+63)>>6)
		a.fen = make([]int32, len(a.live)+1)
	}
	clear(a.live)
	for w := 0; w < k>>6; w++ {
		a.live[w] = ^uint64(0)
	}
	if k&63 != 0 {
		a.live[k>>6] = 1<<uint(k&63) - 1
	}
	// Fenwick over the word popcounts, built in O(words).
	clear(a.fen)
	for i := 1; i < len(a.fen); i++ {
		a.fen[i] += int32(bits.OnesCount64(a.live[i-1]))
		if j := i + i&-i; j < len(a.fen) {
			a.fen[j] += a.fen[i]
		}
	}
	a.next = k
}
