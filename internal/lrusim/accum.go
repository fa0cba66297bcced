package lrusim

import (
	"fmt"
	"math"

	"epfis/internal/storage"
)

// Accum is an incremental, mergeable Mattson stack simulator: the streaming
// counterpart of Scratch. Where Scratch.Analyze consumes a complete trace and
// resets between runs, an Accum consumes the trace in batches — Feed may be
// called any number of times — carrying the Fenwick marker tree, the per-page
// last-position table, and the stack-distance counts across calls, so the
// fetch curve (and everything derived from it: FPF samples, the clustering
// factor) can be read at any point with Curve() without replaying history.
//
// Two Accums can also be combined: a.Merge(b) produces in a the exact state
// of an accumulator that consumed a's stream followed by b's stream. Feed and
// Merge are both bit-identical to Scratch.Analyze over the concatenated
// trace (property-tested in accum_test.go), so per-shard accumulators — one
// per ingest worker, or one per node — roll up into the same curve the
// offline one-shot pass would have produced.
//
// Memory grows with the stream: the Fenwick tree is indexed by reference
// position (one int32 per reference) and the last-position table by distinct
// page. Exact stack-distance accounting needs both — there is no sublinear
// exact form — so long-running pipelines bound an Accum's life (the ingest
// pipeline rotates accumulators past a reference cap) rather than feeding one
// forever. Positions are int32: a single Accum (or merge result) is capped at
// MaxAccumRefs references and Feed/Merge panic beyond it, the same way a
// slice append panics past its address space.
//
// The steady-state Feed path performs zero allocations; growth of the carried
// structures is amortized doubling, so measured allocs/op over any realistic
// batch sequence is ≤ 2 (gated by TestAccumFeedSteadyStateAllocs).
//
// An Accum is not safe for concurrent use.
type Accum struct {
	fen []int32 // Fenwick over stream positions, 1-based; len = n+1 once fed
	n   int     // references consumed so far

	cold    int64   // first-ever references (== number of distinct pages)
	counts  []int64 // counts[d] = references at stack distance d
	maxDist int     // high-water mark of counts actually touched

	lastPos []int32          // dense page id -> most recent position (0-based)
	pages   []storage.PageID // dense page id -> raw id, in first-sight order

	// Raw-id remap: slice path while ids stay dense, map fallback once the
	// largest raw id outgrows maxSliceRemapFactor*refs + slack. denseOf
	// stores dense+1 so the zero value means "unseen" (no epoch stamps —
	// an Accum never resets implicitly).
	denseOf []int32
	remap   map[storage.PageID]int32
}

// MaxAccumRefs is the reference-count capacity of one Accum: positions are
// int32, so a stream (or merge result) longer than this cannot be represented.
const MaxAccumRefs = math.MaxInt32 - 1

// NewAccum returns an empty accumulator.
func NewAccum() *Accum { return &Accum{} }

// Total reports the number of references consumed so far.
func (a *Accum) Total() int64 { return int64(a.n) }

// Distinct reports the number of distinct pages seen so far — the cold-miss
// count, the paper's A for the accumulated stream.
func (a *Accum) Distinct() int64 { return a.cold }

// MaxPageID reports the largest raw page id seen, or 0 on an empty Accum.
// Callers deriving table metadata from a stream use it as a lower bound on T.
func (a *Accum) MaxPageID() storage.PageID {
	var max storage.PageID
	for _, pg := range a.pages {
		if pg > max {
			max = pg
		}
	}
	return max
}

// Reset returns the accumulator to the empty state, retaining capacity so a
// rotated accumulator re-fills without reallocating.
func (a *Accum) Reset() {
	for i := range a.fen {
		a.fen[i] = 0
	}
	a.fen = a.fen[:0]
	a.n = 0
	a.cold = 0
	for d := 1; d <= a.maxDist; d++ {
		a.counts[d] = 0
	}
	a.maxDist = 0
	a.lastPos = a.lastPos[:0]
	a.pages = a.pages[:0]
	for i := range a.denseOf {
		a.denseOf[i] = 0
	}
	if a.remap != nil {
		clear(a.remap)
	}
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
	a.extendFen(a.n + len(t))
	for _, pg := range t {
		p := a.n
		id, seen := a.lookup(pg)
		if !seen {
			id = a.assign(pg)
			a.cold++
			a.lastPos[id] = int32(p)
			a.fenAdd(p+1, 1)
			a.n++
			continue
		}
		prev := int(a.lastPos[id])
		// Distinct pages referenced strictly between prev and p: the
		// most-recent-reference markers after prev, excluding the page's own
		// marker still sitting at prev; distance is that count + 1.
		d := a.fenRange(prev+1, p-1) + 1
		a.count(d)
		a.fenAdd(prev+1, -1)
		a.lastPos[id] = int32(p)
		a.fenAdd(p+1, 1)
		a.n++
	}
}

// Merge appends b's accumulated stream to a's: afterwards a holds exactly the
// state of an accumulator that consumed a's references followed by b's, and
// a.Curve() equals Scratch.Analyze over the concatenated trace bit for bit.
// b is read, not modified, and remains usable.
//
// The fix-up is the heart of the operation: a reference that was a cold miss
// within b may have a finite stack distance in the concatenation (its page was
// seen in a). Walking b's distinct pages in first-sight order while retiring
// their a-region markers as we go makes that distance exactly
//
//	rank(p in b's first-sight order) + live a-markers above lastA(p) + 1
//
// — the earlier b-pages are counted by rank whether or not a knew them, and
// the a-region query skips exactly the pages already counted, because their
// markers have been retired. Every non-first reference within b keeps the
// distance b already recorded (its reuse window is entirely inside b), so
// b's histogram merges wholesale.
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
	oldN := a.n
	a.extendFen(oldN + b.n)
	// Within-b distances are unchanged by prefixing a's stream.
	if b.maxDist >= len(a.counts) {
		a.growCounts(b.maxDist)
	}
	if b.maxDist > a.maxDist {
		a.maxDist = b.maxDist
	}
	for d := 1; d <= b.maxDist; d++ {
		a.counts[d] += b.counts[d]
	}
	// First-sight pages of b, in order: fix up the cold misses that are
	// re-references in the concatenation, retire superseded a-markers, and
	// plant each page's merged marker at its last-b position.
	for r, pg := range b.pages {
		if i, inA := a.lookup(pg); inA {
			ip := int(a.lastPos[i])
			after := a.fenRange(ip+1, oldN-1)
			a.count(r + after + 1)
			a.fenAdd(ip+1, -1)
			mp := oldN + int(b.lastPos[r])
			a.lastPos[i] = int32(mp)
			a.fenAdd(mp+1, 1)
			continue
		}
		id := a.assign(pg)
		a.cold++
		mp := oldN + int(b.lastPos[r])
		a.lastPos[id] = int32(mp)
		a.fenAdd(mp+1, 1)
	}
	a.n += b.n
}

// Curve materializes the fetch curve of everything accumulated so far. Only
// the returned FetchCurve and its cumulative array are allocated; the Accum
// keeps accumulating afterwards.
func (a *Accum) Curve() *FetchCurve {
	cum := make([]int64, a.maxDist+1)
	var run int64
	for d := 1; d <= a.maxDist; d++ {
		run += a.counts[d]
		cum[d] = run
	}
	return &FetchCurve{cumHits: cum, cold: a.cold, total: int64(a.n)}
}

// Histogram materializes the stack-distance histogram accumulated so far.
func (a *Accum) Histogram() *Histogram {
	h := &Histogram{Total: int64(a.n), Cold: a.cold}
	h.Counts = make([]int64, a.maxDist+1)
	copy(h.Counts, a.counts[:min(len(a.counts), a.maxDist+1)])
	return h
}

// count records one reference at stack distance d, growing the counts table
// as the high-water mark advances.
func (a *Accum) count(d int) {
	if d >= len(a.counts) {
		a.growCounts(d)
	}
	if d > a.maxDist {
		a.maxDist = d
	}
	a.counts[d]++
}

func (a *Accum) growCounts(d int) {
	for len(a.counts) <= d {
		a.counts = append(a.counts, 0)
	}
}

// lookup resolves a raw page id to its dense id without assigning one.
func (a *Accum) lookup(pg storage.PageID) (int32, bool) {
	if a.remap != nil {
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

// assign registers a first-sight page, returning its new dense id and
// growing lastPos/pages in step. The slice remap is kept while raw ids stay
// within maxSliceRemapFactor of the reference count (the Scratch rule);
// a sparse id migrates everything to the map path, permanently.
func (a *Accum) assign(pg storage.PageID) int32 {
	id := int32(len(a.pages))
	a.pages = append(a.pages, pg)
	a.lastPos = append(a.lastPos, 0)
	if a.remap != nil {
		a.remap[pg] = id
		return id
	}
	if need := int(pg) + 1; need > len(a.denseOf) {
		if int64(pg) >= int64(maxSliceRemapFactor)*int64(a.n+1)+maxSliceRemapSlack {
			// Too sparse for a flat table: migrate to the map, once.
			a.remap = make(map[storage.PageID]int32, len(a.pages)*2)
			for raw, v := range a.denseOf {
				if v != 0 {
					a.remap[storage.PageID(raw)] = v - 1
				}
			}
			a.denseOf = nil
			a.remap[pg] = id
			return id
		}
		if need <= cap(a.denseOf) {
			a.denseOf = a.denseOf[:need]
		} else {
			grown := make([]int32, need, max(need, 2*cap(a.denseOf)))
			copy(grown, a.denseOf)
			a.denseOf = grown
		}
	}
	a.denseOf[pg] = id + 1
	return id
}

// extendFen grows the Fenwick tree to cover positions 1..m. New indexes carry
// prefix information over the existing marker region only (every position
// past the current stream end has value zero until a marker lands there): an
// index whose covered range stays inside the new region is zero, and the few
// whose range crosses the old boundary — at most one per bit of m — get the
// boundary-bounded prefix difference. Subsequent fenAdd calls update the new
// indexes like any others.
func (a *Accum) extendFen(m int) {
	if len(a.fen) == 0 {
		if cap(a.fen) > 0 {
			a.fen = a.fen[:1]
			a.fen[0] = 0
		} else {
			a.fen = append(a.fen, 0)
		}
	}
	old := len(a.fen) - 1 // current max covered position
	if m <= old {
		return
	}
	if cap(a.fen) < m+1 {
		grown := make([]int32, len(a.fen), max(m+1, 2*cap(a.fen)))
		copy(grown, a.fen)
		a.fen = grown
	}
	for i := old + 1; i <= m; i++ {
		lo := i - i&(-i)
		var v int32
		if lo < old {
			v = int32(a.fenPrefix(old) - a.fenPrefix(lo))
		}
		a.fen = append(a.fen, v)
	}
}

func (a *Accum) fenAdd(i int, delta int32) {
	for ; i < len(a.fen); i += i & (-i) {
		a.fen[i] += delta
	}
}

func (a *Accum) fenPrefix(i int) int {
	sum := 0
	if i >= len(a.fen) {
		i = len(a.fen) - 1
	}
	for ; i > 0; i -= i & (-i) {
		sum += int(a.fen[i])
	}
	return sum
}

// fenRange sums positions lo..hi inclusive, 0-based stream coordinates.
func (a *Accum) fenRange(lo, hi int) int {
	if hi < lo {
		return 0
	}
	return a.fenPrefix(hi+1) - a.fenPrefix(lo)
}
