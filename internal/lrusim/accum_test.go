package lrusim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"epfis/internal/storage"
)

// feedInSplits feeds the trace through a into randomly sized batches,
// exercising shrinking and growing batch lengths including empty ones.
func feedInSplits(rng *rand.Rand, a *Accum, t Trace) {
	for len(t) > 0 {
		k := rng.Intn(len(t) + 1)
		if rng.Intn(8) == 0 {
			a.Feed(nil) // empty batches must be no-ops
		}
		a.Feed(t[:k])
		t = t[k:]
	}
}

// accumMatchesTree checks the accumulated state against TreeSimulator, the
// independent oracle, over the full trace, bit for bit: identical histogram,
// identical F(B) for every informative B, identical A and N.
func accumMatchesTree(t *testing.T, a *Accum, full Trace) {
	t.Helper()
	want := TreeSimulator{}.Run(full)
	if got := a.Histogram(); !histogramsEqual(got, want) {
		t.Fatalf("histogram diverged: got cold=%d total=%d, want cold=%d total=%d",
			got.Cold, got.Total, want.Cold, want.Total)
	}
	wc := want.FetchCurve()
	gc := a.Curve()
	hi := int(wc.Accesses()) + 2
	for b := 1; b <= hi; b++ {
		if gc.Fetches(b) != wc.Fetches(b) {
			t.Fatalf("F(%d): accum %d, tree %d", b, gc.Fetches(b), wc.Fetches(b))
		}
	}
	if gc.Accesses() != wc.Accesses() || gc.Total() != wc.Total() {
		t.Fatalf("A/N diverged: accum (%d,%d), tree (%d,%d)",
			gc.Accesses(), gc.Total(), wc.Accesses(), wc.Total())
	}
}

// sparseTrace spreads page ids far beyond the trace length so the accumulator
// must take (or migrate to) the map remap path.
func sparseTrace(rng *rand.Rand, n, pages int) Trace {
	t := make(Trace, n)
	for i := range t {
		t[i] = storage.PageID(rng.Intn(pages)) * 1_048_573 // large prime stride
	}
	return t
}

func pickTrace(rng *rand.Rand, n, pages int) Trace {
	switch rng.Intn(3) {
	case 0:
		return randomTrace(rng, n, pages)
	case 1:
		return clusteredTrace(rng, n, pages, 1+rng.Intn(6))
	default:
		return sparseTrace(rng, n, pages)
	}
}

func TestAccumFeedMatchesScratchProperty(t *testing.T) {
	// One trace, arbitrary batch splits: the incremental pass must be
	// bit-identical to the offline pass over the concatenation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		full := pickTrace(rng, 1+rng.Intn(600), 1+rng.Intn(60))
		a := NewAccum()
		feedInSplits(rng, a, full)
		return histogramsEqual(a.Histogram(), TreeSimulator{}.Run(full))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAccumMergeMatchesConcatenationProperty(t *testing.T) {
	// Per-shard accumulators merged in order must be bit-identical to one
	// accumulator over the concatenated stream — across dense, clustered,
	// and sparse id shapes, with page-id overlap between shards.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(5)
		pages := 1 + rng.Intn(50)
		var full Trace
		accs := make([]*Accum, shards)
		for i := range accs {
			part := pickTrace(rng, rng.Intn(300), pages)
			full = append(full, part...)
			accs[i] = NewAccum()
			feedInSplits(rng, accs[i], part)
		}
		merged := accs[0]
		for _, b := range accs[1:] {
			merged.Merge(b)
		}
		return histogramsEqual(merged.Histogram(), TreeSimulator{}.Run(full))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAccumMergeThenKeepFeeding(t *testing.T) {
	// A merged accumulator must remain a valid stream prefix: further Feeds
	// and further Merges on top of it stay exact.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p1 := pickTrace(rng, 200, 30)
		p2 := pickTrace(rng, 150, 30)
		p3 := pickTrace(rng, 100, 30)
		a, b := NewAccum(), NewAccum()
		a.Feed(p1)
		b.Feed(p2)
		a.Merge(b)
		a.Feed(p3)          // feeding after a merge must stay exact
		a.Merge(NewAccum()) // merging an empty accumulator is a no-op
		concat := append(append(p1.Clone(), p2...), p3...)
		accumMatchesTree(t, a, concat)
	}
}

func TestAccumMixedRemapMerge(t *testing.T) {
	// Slice-path accumulator merged with map-path accumulator (and the
	// reverse), including ids present on both sides.
	dense := tr(0, 1, 2, 3, 0, 1, 2, 3, 2, 1)
	sparse := Trace{1 << 30, 1, 1 << 30, 1 << 20, 3, 1 << 20}
	for _, order := range [][2]Trace{{dense, sparse}, {sparse, dense}} {
		a, b := NewAccum(), NewAccum()
		a.Feed(order[0])
		b.Feed(order[1])
		a.Merge(b)
		concat := append(order[0].Clone(), order[1]...)
		accumMatchesTree(t, a, concat)
	}
}

func TestAccumCurveMidStream(t *testing.T) {
	// Curve() at every batch boundary must equal the offline pass over the
	// prefix consumed so far, and reading it must not disturb accumulation.
	rng := rand.New(rand.NewSource(3))
	full := clusteredTrace(rng, 1200, 80, 4)
	a := NewAccum()
	for off := 0; off < len(full); {
		k := 1 + rng.Intn(200)
		if off+k > len(full) {
			k = len(full) - off
		}
		a.Feed(full[off : off+k])
		off += k
		want := TreeSimulator{}.Run(full[:off]).FetchCurve()
		got := a.Curve()
		for b := 1; b <= 90; b++ {
			if got.Fetches(b) != want.Fetches(b) {
				t.Fatalf("prefix %d F(%d): accum %d, tree %d", off, b, got.Fetches(b), want.Fetches(b))
			}
		}
	}
}

func TestAccumResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewAccum()
	for _, n := range []int{1000, 3, 700, 1, 1200, 30_000, 100, 20_000} {
		a.Reset()
		full := pickTrace(rng, n, 1+n/10)
		feedInSplits(rng, a, full)
		accumMatchesTree(t, a, full)
	}
}

func TestAccumAcrossCompactions(t *testing.T) {
	// Each case renumbers the live markers many times; every renumbering
	// and every growth of the slot array must keep the distances exact.
	rng := rand.New(rand.NewSource(31))
	t.Run("long-stream", func(t *testing.T) {
		for _, pages := range []int{1, 7, 64, 65, 200} {
			slots := (4*pages + 63) &^ 63 // the slot array stays within 4x the pages
			full := pickTrace(rng, 50*slots+rng.Intn(64), pages)
			a := NewAccum()
			feedInSplits(rng, a, full)
			if a.Total() < 50*int64(len(a.pageAt)) {
				t.Fatalf("pages=%d: %d refs over %d slots, want >= 50x", pages, a.Total(), len(a.pageAt))
			}
			accumMatchesTree(t, a, full)
		}
	})
	t.Run("pages-grow-mid-stream", func(t *testing.T) {
		full := randomTrace(rng, 5_000, 40)
		full = append(full, clusteredTrace(rng, 8_000, 3_000, 20)...)
		full = append(full, randomTrace(rng, 5_000, 40)...)
		a := NewAccum()
		feedInSplits(rng, a, full)
		accumMatchesTree(t, a, full)
	})
	t.Run("merge-exceeds-free-slots", func(t *testing.T) {
		p1 := randomTrace(rng, 3_000, 50)
		p2 := randomTrace(rng, 8_000, 2_000) // shares ids 0..49 with p1
		p3 := randomTrace(rng, 2_000, 3_000)
		a, b := NewAccum(), NewAccum()
		a.Feed(p1)
		b.Feed(p2)
		if free := len(a.pageAt) - a.next; b.Distinct() <= int64(free) {
			t.Fatalf("b has %d live markers, a has %d free slots: case does not overflow", b.Distinct(), free)
		}
		a.Merge(b)
		concat := append(p1.Clone(), p2...)
		accumMatchesTree(t, a, concat)
		a.Feed(p3)
		accumMatchesTree(t, a, append(concat, p3...))
	})
}

// accumRetainedBytes is the capacity an Accum keeps between windows; the map
// remap is excluded, so callers check the flat table is in use.
func accumRetainedBytes(a *Accum) int {
	return 8*(cap(a.counts)+cap(a.pages)+cap(a.live)) + 4*(cap(a.pageAt)+cap(a.fen)+cap(a.denseOf))
}

func TestAccumMemoryBoundedByDistinctPages(t *testing.T) {
	// The ingest pipeline keeps one Accum per index between windows, so its
	// capacity must follow distinct pages, not stream length: 1M random
	// references over 2,500 pages retain exactly what 100k did, within 64 B
	// per distinct page plus 16 KiB.
	const pages = 2_500
	rng := rand.New(rand.NewSource(41))
	a := NewAccum()
	batch := make(Trace, 5_000)
	feedTo := func(refs int64) {
		for a.Total() < refs {
			for i := range batch {
				batch[i] = storage.PageID(rng.Intn(pages))
			}
			a.Feed(batch)
		}
	}
	feedTo(100_000)
	at100k := accumRetainedBytes(a)
	feedTo(1_000_000)
	if a.sparse {
		t.Fatal("dense page ids left the flat remap table")
	}
	if got := accumRetainedBytes(a); got != at100k {
		t.Errorf("retained %d B after 1M refs, %d B after 100k", got, at100k)
	}
	t.Logf("retained %d B over %d distinct pages", at100k, a.Distinct())
	if limit := 64*int(a.Distinct()) + 16<<10; at100k > limit {
		t.Errorf("retained %d B over %d distinct pages, want <= %d", at100k, a.Distinct(), limit)
	}
}

func TestAccumRandomPagesStayFlat(t *testing.T) {
	// Unclustered ids keep the flat remap table from the first reference;
	// ids far sparser than the stream still take the map, and Reset
	// returns to the table.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		full := randomTrace(rng, 100_000, 2_500)
		a := NewAccum()
		for off := 0; off < len(full); off += 5_000 {
			a.Feed(full[off : off+5_000])
		}
		if a.sparse {
			t.Fatalf("trial %d: random 2,500-page stream left the flat table", trial)
		}
	}
	a := NewAccum()
	a.Feed(sparseTrace(rng, 1_000, 50))
	if !a.sparse {
		t.Error("ids at a 1,048,573 stride stayed on the flat table")
	}
	a.Reset()
	a.Feed(randomTrace(rng, 1_000, 50))
	if a.sparse {
		t.Error("Reset did not return to the flat table")
	}
}

func TestAccumEmptyAndEdge(t *testing.T) {
	a := NewAccum()
	if c := a.Curve(); c.Total() != 0 || c.Fetches(1) != 0 {
		t.Error("empty accumulator curve wrong")
	}
	a.Feed(tr(5))
	if c := a.Curve(); c.Fetches(1) != 1 || c.Accesses() != 1 {
		t.Error("single-reference curve wrong")
	}
	if got := a.MaxPageID(); got != 5 {
		t.Errorf("MaxPageID = %d, want 5", got)
	}
	b := NewAccum()
	b.Merge(a) // merge into empty
	accumMatchesTree(t, b, tr(5))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-merge did not panic")
			}
		}()
		b.Merge(b)
	}()
}

func TestAccumConcurrentShards(t *testing.T) {
	// Shard feeding from separate goroutines (one Accum each, as the ingest
	// pipeline does) then a serial merge: exercised under -race by make race.
	rng := rand.New(rand.NewSource(17))
	shards := make([]Trace, 8)
	var full Trace
	for i := range shards {
		shards[i] = clusteredTrace(rng, 500, 60, 3)
	}
	for _, sh := range shards {
		full = append(full, sh...)
	}
	accs := make([]*Accum, len(shards))
	done := make(chan int, len(shards))
	for i := range shards {
		go func(i int) {
			accs[i] = NewAccum()
			r := rand.New(rand.NewSource(int64(i)))
			feedInSplits(r, accs[i], shards[i])
			done <- i
		}(i)
	}
	for range shards {
		<-done
	}
	merged := accs[0]
	for _, b := range accs[1:] {
		merged.Merge(b)
	}
	accumMatchesTree(t, merged, full)
}

func TestAccumFeedSteadyStateAllocs(t *testing.T) {
	// Amortized allocs/op over a long warm stream: the committed budget is
	// <= 2 (matching Scratch.Analyze); steady state is zero with occasional
	// capacity doublings.
	rng := rand.New(rand.NewSource(2))
	a := NewAccum()
	a.Feed(clusteredTrace(rng, 50_000, 2_000, 10)) // warm up capacities
	batch := clusteredTrace(rng, 512, 2_000, 10)
	avg := testing.AllocsPerRun(100, func() { a.Feed(batch) })
	if avg > 2 {
		t.Errorf("Feed allocs/op = %.1f, want <= 2", avg)
	}
}

// BenchmarkAccumFeed measures the incremental path per 512-reference batch on
// the same clustered shape as BenchmarkScratchAnalyze; divide ns/op by 512
// for ns/ref.
func BenchmarkAccumFeed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := clusteredTrace(rng, 512, 2_000, 40)
	a := NewAccum()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Total() > 4<<20 {
			b.StopTimer()
			a.Reset()
			b.StartTimer()
		}
		a.Feed(batch)
	}
}

// BenchmarkAccumMerge measures merging a 100k-reference shard into a
// 100k-reference base. The base is rebuilt per iteration with the timer
// paused: Reset, then Merge of a copy fed once, which gives the state of
// feeding the base trace in O(distinct pages), not another 100k-reference
// Feed per ~0.1 ms iteration.
func BenchmarkAccumMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t1 := clusteredTrace(rng, 100_000, 2_000, 40)
	t2 := clusteredTrace(rng, 100_000, 2_000, 40)
	fed, shard, base := NewAccum(), NewAccum(), NewAccum()
	fed.Feed(t1)
	shard.Feed(t2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base.Reset()
		base.Merge(fed)
		b.StartTimer()
		base.Merge(shard)
	}
}
