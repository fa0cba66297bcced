// Package lrusim implements single-pass LRU buffer-pool simulation over page
// reference traces using the stack property of LRU (Mattson et al., 1970),
// exactly as Subprogram LRU-Fit in the paper prescribes:
//
//	"the stack property of the LRU algorithm is used to do the simulation
//	 using a [single stack]. A sequential scan of the buffer pool is avoided
//	 by using hash tables of buffer pages."
//
// One pass over the trace yields the page-fetch count F(B) for EVERY buffer
// size B simultaneously: each reference's LRU stack distance d is recorded in
// a histogram; a reference is a hit in a pool of size B if and only if d <= B,
// so F(B) = cold misses + #\{references with d > B\}.
//
// Two reference stack-distance implementations are provided with identical
// output:
//
//   - ListSimulator: the textbook move-to-front list, O(n * avg depth). This
//     mirrors the paper's description most literally (hash table avoids the
//     scan for membership, the list walk yields the distance).
//   - TreeSimulator: a Fenwick tree over reference positions, O(n log n).
//     The stack distance equals the number of distinct pages referenced since
//     the page's previous reference, which is a prefix-sum query.
//
// The fast path is one kernel, Accum: it keeps one slot per distinct page's
// latest reference instead of one per reference, so its memory is bounded by
// distinct pages, and it can be fed batch by batch and merged. Scratch and
// Analyze reset and feed it once per trace. Property tests in this package
// check the two reference simulators against each other and against the
// real LRU buffer pool in internal/buffer, and the kernel against them.
package lrusim

import (
	"errors"
	"fmt"
	"sort"

	"epfis/internal/storage"
)

// Trace is a sequence of data-page references, in the order an index scan
// touches them (one entry per index entry, i.e. per record fetched).
type Trace []storage.PageID

// Clone returns an independent copy of the trace.
func (t Trace) Clone() Trace {
	return append(Trace(nil), t...)
}

// DistinctPages reports the number of distinct pages in the trace — the
// paper's A, the number of pages accessed by the scan.
func (t Trace) DistinctPages() int {
	seen := make(map[storage.PageID]struct{}, 256)
	for _, p := range t {
		seen[p] = struct{}{}
	}
	return len(seen)
}

// Histogram is the stack-distance histogram of a trace. Distances are
// 1-based: a reference at distance d hits in any LRU pool with >= d frames.
// Cold (first-ever) references have infinite distance and are counted
// separately.
type Histogram struct {
	// Counts[d] is the number of references with stack distance d;
	// Counts[0] is unused and always zero.
	Counts []int64
	// Cold is the number of first references (compulsory misses). It equals
	// the number of distinct pages accessed (the paper's A).
	Cold int64
	// Total is the number of references in the trace (for a full index scan,
	// the paper's N).
	Total int64
}

// FetchCurve converts the histogram into a constant-time F(B) lookup.
func (h *Histogram) FetchCurve() *FetchCurve {
	cum := make([]int64, len(h.Counts))
	var run int64
	for d := 1; d < len(h.Counts); d++ {
		run += h.Counts[d]
		cum[d] = run
	}
	return &FetchCurve{cumHits: cum, cold: h.Cold, total: h.Total}
}

// FetchCurve answers "how many page fetches would an LRU pool of B frames
// perform on this trace" for any B, in O(1) after the one-time pass.
// This is the paper's FPF (full-index-scan page fetch) function when the
// trace covers the whole index.
type FetchCurve struct {
	cumHits []int64 // cumHits[d] = hits in a pool of size d
	cold    int64
	total   int64
}

// Fetches returns F(B), the number of page fetches with an LRU pool of
// bufferSize frames. bufferSize < 1 is treated as 1 — a scan always has at
// least the frame it is reading into (and F(0) is undefined for LRU).
func (c *FetchCurve) Fetches(bufferSize int) int64 {
	if bufferSize < 1 {
		bufferSize = 1
	}
	if bufferSize >= len(c.cumHits) {
		if len(c.cumHits) == 0 {
			return c.cold
		}
		return c.total - c.cumHits[len(c.cumHits)-1]
	}
	return c.total - c.cumHits[bufferSize]
}

// Accesses reports the paper's A: the number of distinct pages accessed.
// Every fetch count satisfies A <= F(B) <= Total.
func (c *FetchCurve) Accesses() int64 { return c.cold }

// Total reports the number of references in the trace.
func (c *FetchCurve) Total() int64 { return c.total }

// MinBufferForFullCaching returns the smallest buffer size at which the scan
// incurs only compulsory misses (F(B) == A).
func (c *FetchCurve) MinBufferForFullCaching() int {
	// F is non-increasing in B; binary search the first B with F(B) == cold.
	lo, hi := 1, len(c.cumHits)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Fetches(mid) == c.cold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Simulator computes a stack-distance histogram from a trace.
type Simulator interface {
	// Run consumes the trace and returns its histogram.
	Run(t Trace) *Histogram
}

// ListSimulator implements Simulator with a move-to-front doubly linked list
// plus a hash index (the paper's literal construction).
type ListSimulator struct{}

type listNode struct {
	page       storage.PageID
	prev, next *listNode
}

// Run implements Simulator.
func (ListSimulator) Run(t Trace) *Histogram {
	h := &Histogram{Total: int64(len(t))}
	index := make(map[storage.PageID]*listNode, 1024)
	var head *listNode
	maxDepth := 0
	counts := make([]int64, 1, 1024)
	for _, pg := range t {
		if node, ok := index[pg]; ok {
			// Walk from the head to find the node's depth (1-based).
			d := 1
			for cur := head; cur != node; cur = cur.next {
				d++
			}
			for len(counts) <= d {
				counts = append(counts, 0)
			}
			counts[d]++
			if d > maxDepth {
				maxDepth = d
			}
			// Move to front.
			if head != node {
				if node.prev != nil {
					node.prev.next = node.next
				}
				if node.next != nil {
					node.next.prev = node.prev
				}
				node.prev = nil
				node.next = head
				if head != nil {
					head.prev = node
				}
				head = node
			}
		} else {
			h.Cold++
			node := &listNode{page: pg, next: head}
			if head != nil {
				head.prev = node
			}
			head = node
			index[pg] = node
		}
	}
	h.Counts = counts
	return h
}

// TreeSimulator implements Simulator with a Fenwick (binary indexed) tree
// over reference positions: stack distance = 1 + number of distinct pages
// referenced strictly between a page's previous reference and now, which is a
// range sum over "is this position some page's most recent reference".
type TreeSimulator struct{}

// Run implements Simulator.
func (TreeSimulator) Run(t Trace) *Histogram {
	n := len(t)
	h := &Histogram{Total: int64(n)}
	bit := newFenwick(n + 1)
	lastPos := make(map[storage.PageID]int, 1024)
	counts := make([]int64, 1, 1024)
	for i, pg := range t {
		if prev, ok := lastPos[pg]; ok {
			// Distinct pages referenced in (prev, i): most-recent-reference
			// markers strictly after prev. The page itself still has its
			// marker at prev, so the count excludes it; distance is count+1.
			d := bit.rangeSum(prev+1, i-1) + 1
			for len(counts) <= d {
				counts = append(counts, 0)
			}
			counts[d]++
			bit.add(prev+1, -1) // marker moves from prev to i (1-based BIT)
		} else {
			h.Cold++
		}
		lastPos[pg] = i
		bit.add(i+1, +1)
	}
	h.Counts = counts
	return h
}

// fenwick is a 1-based Fenwick tree of ints.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) prefixSum(i int) int {
	s := 0
	if i >= len(f.tree) {
		i = len(f.tree) - 1
	}
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// rangeSum sums positions lo..hi inclusive, in 0-based trace coordinates.
func (f *fenwick) rangeSum(lo, hi int) int {
	if hi < lo {
		return 0
	}
	return f.prefixSum(hi+1) - f.prefixSum(lo)
}

// Analyze computes the trace's fetch curve with the default simulator. It is
// a thin wrapper over the pooled Scratch path, so one-off callers get the
// allocation-lean simulation without managing a Scratch themselves; loops
// that analyze many traces should hold their own Scratch per goroutine.
func Analyze(t Trace) *FetchCurve {
	return AnalyzePooled(t)
}

// DirectFetches simulates a single LRU pool of the given size over the trace
// (no stack trick) and returns the fetch count. It exists as an independent
// oracle for tests and for one-off measurements.
func DirectFetches(t Trace, bufferSize int) (int64, error) {
	if bufferSize < 1 {
		return 0, fmt.Errorf("lrusim: buffer size must be >= 1, got %d", bufferSize)
	}
	type node struct {
		page       storage.PageID
		prev, next *node
	}
	index := make(map[storage.PageID]*node, bufferSize)
	var head, tail *node
	var fetches int64
	unlink := func(n *node) {
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			head = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		} else {
			tail = n.prev
		}
		n.prev, n.next = nil, nil
	}
	pushFront := func(n *node) {
		n.next = head
		if head != nil {
			head.prev = n
		}
		head = n
		if tail == nil {
			tail = n
		}
	}
	for _, pg := range t {
		if n, ok := index[pg]; ok {
			if head != n {
				unlink(n)
				pushFront(n)
			}
			continue
		}
		fetches++
		if len(index) >= bufferSize {
			victim := tail
			unlink(victim)
			delete(index, victim.page)
		}
		n := &node{page: pg}
		index[pg] = n
		pushFront(n)
	}
	return fetches, nil
}

// ErrEmptyTrace reports an operation that needs a non-empty trace.
var ErrEmptyTrace = errors.New("lrusim: empty trace")

// SampleCurve evaluates the fetch curve at each buffer size in sizes and
// returns (B, F(B)) pairs sorted by B. Duplicate sizes are collapsed.
func SampleCurve(c *FetchCurve, sizes []int) []Point {
	uniq := make(map[int]struct{}, len(sizes))
	out := make([]Point, 0, len(sizes))
	for _, b := range sizes {
		if b < 1 {
			b = 1
		}
		if _, dup := uniq[b]; dup {
			continue
		}
		uniq[b] = struct{}{}
		out = append(out, Point{B: b, F: c.Fetches(b)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].B < out[j].B })
	return out
}

// Point is one sampled point of an FPF curve.
type Point struct {
	B int   // buffer size in pages
	F int64 // page fetches at that size
}

// ClockFetches simulates a clock (second-chance) buffer pool of the given
// size over the trace and returns the fetch count. Clock has no stack
// property, so unlike LRU there is no one-pass-all-sizes trick; this direct
// simulator supports the policy-sensitivity study (how well EPFIS's
// LRU-derived model predicts a clock-managed pool, the common LRU
// approximation in real systems).
func ClockFetches(t Trace, bufferSize int) (int64, error) {
	if bufferSize < 1 {
		return 0, fmt.Errorf("lrusim: buffer size must be >= 1, got %d", bufferSize)
	}
	type frame struct {
		page     storage.PageID
		ref      bool
		occupied bool
	}
	frames := make([]frame, bufferSize)
	index := make(map[storage.PageID]int, bufferSize)
	hand := 0
	var fetches int64
	for _, pg := range t {
		if i, ok := index[pg]; ok {
			frames[i].ref = true
			continue
		}
		fetches++
		for {
			f := &frames[hand]
			i := hand
			hand = (hand + 1) % bufferSize
			if !f.occupied {
				frames[i] = frame{page: pg, ref: true, occupied: true}
				index[pg] = i
				break
			}
			if !f.ref {
				delete(index, f.page)
				frames[i] = frame{page: pg, ref: true, occupied: true}
				index[pg] = i
				break
			}
			f.ref = false
		}
	}
	return fetches, nil
}
