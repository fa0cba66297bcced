package lrusim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"epfis/internal/storage"
)

// histogramsEqual compares two histograms up to trailing zero counts.
func histogramsEqual(a, b *Histogram) bool {
	if a.Cold != b.Cold || a.Total != b.Total {
		return false
	}
	n := len(a.Counts)
	if len(b.Counts) > n {
		n = len(b.Counts)
	}
	at := func(h *Histogram, d int) int64 {
		if d < len(h.Counts) {
			return h.Counts[d]
		}
		return 0
	}
	for d := 0; d < n; d++ {
		if at(a, d) != at(b, d) {
			return false
		}
	}
	return true
}

func TestScratchMatchesSimulatorsProperty(t *testing.T) {
	// One Scratch reused across every quick iteration, with trace sizes and
	// page counts varying each time — the reuse-across-sizes regression the
	// pooling must survive.
	s := NewScratch()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(600)
		pages := 1 + rng.Intn(60)
		var trace Trace
		if rng.Intn(2) == 0 {
			trace = randomTrace(rng, n, pages)
		} else {
			trace = clusteredTrace(rng, n, pages, 1+rng.Intn(6))
		}
		hList := ListSimulator{}.Run(trace)
		hTree := TreeSimulator{}.Run(trace)
		hScr := s.Run(trace)
		if !histogramsEqual(hScr, hList) || !histogramsEqual(hScr, hTree) {
			return false
		}
		cScr := s.Analyze(trace)
		cTree := hTree.FetchCurve()
		for b := 1; b <= pages+2; b++ {
			if cScr.Fetches(b) != cTree.Fetches(b) {
				return false
			}
		}
		return cScr.Accesses() == cTree.Accesses() && cScr.Total() == cTree.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestScratchReuseShrinkThenGrow(t *testing.T) {
	// Deterministic worst case for stale state: a large trace, then a tiny
	// one, then large again, with overlapping page ids.
	rng := rand.New(rand.NewSource(5))
	s := NewScratch()
	for _, n := range []int{2000, 3, 1500, 1, 2500} {
		trace := clusteredTrace(rng, n, 1+n/10, 3)
		want := TreeSimulator{}.Run(trace)
		if got := s.Run(trace); !histogramsEqual(got, want) {
			t.Fatalf("n=%d: scratch diverged after reuse", n)
		}
	}
}

func TestScratchSparsePageIDs(t *testing.T) {
	// Page ids far beyond the trace length force the map remap path; mixing
	// sparse and dense traces on one Scratch must switch paths cleanly.
	s := NewScratch()
	sparse := Trace{1 << 30, 7, 1 << 30, 1 << 20, 7, 1 << 20, 1 << 30}
	dense := tr(0, 1, 2, 0, 1, 2)
	for i := 0; i < 3; i++ {
		if got, want := s.Run(sparse), (TreeSimulator{}).Run(sparse); !histogramsEqual(got, want) {
			t.Fatalf("iter %d: sparse trace diverged", i)
		}
		if got, want := s.Run(dense), (TreeSimulator{}).Run(dense); !histogramsEqual(got, want) {
			t.Fatalf("iter %d: dense trace diverged", i)
		}
	}
}

func TestScratchEmptyAndSingle(t *testing.T) {
	s := NewScratch()
	if c := s.Analyze(nil); c.Fetches(1) != 0 || c.Total() != 0 {
		t.Error("empty trace curve wrong")
	}
	if c := s.Analyze(tr(9)); c.Fetches(1) != 1 || c.Accesses() != 1 {
		t.Error("single-reference curve wrong")
	}
}

func TestScratchMatchesDirectSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewScratch()
	for trial := 0; trial < 10; trial++ {
		pages := 5 + rng.Intn(50)
		trace := clusteredTrace(rng, 300, pages, 1+rng.Intn(6))
		c := s.Analyze(trace)
		for _, b := range []int{1, 2, pages / 2, pages + 5} {
			if b < 1 {
				b = 1
			}
			direct, err := DirectFetches(trace, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Fetches(b); got != direct {
				t.Fatalf("trial %d B=%d: scratch %d, direct %d", trial, b, got, direct)
			}
		}
	}
}

func TestAnalyzePooledConcurrent(t *testing.T) {
	// The pool hands each goroutine its own Scratch; concurrent Analyze
	// calls must not interfere (run under -race in CI).
	rng := rand.New(rand.NewSource(21))
	traces := make([]Trace, 16)
	wants := make([]*FetchCurve, len(traces))
	for i := range traces {
		traces[i] = clusteredTrace(rng, 400+i*37, 40+i, 4)
		wants[i] = TreeSimulator{}.Run(traces[i]).FetchCurve()
	}
	done := make(chan error, len(traces))
	for i := range traces {
		go func(i int) {
			c := Analyze(traces[i])
			for b := 1; b < 60; b += 7 {
				if c.Fetches(b) != wants[i].Fetches(b) {
					done <- errAt(i, b)
					return
				}
			}
			done <- nil
		}(i)
	}
	for range traces {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type traceMismatch struct{ i, b int }

func (e traceMismatch) Error() string { return "concurrent Analyze mismatch" }

func errAt(i, b int) error { return traceMismatch{i, b} }

// BenchmarkScratchAnalyze measures one Scratch over 100k references: the
// clustered trace BenchmarkTreeSimulator uses, so ns/op and allocs/op are
// directly comparable, and uniformly random placement over 2,500 pages,
// whose ids arrive out of order.
func BenchmarkScratchAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		trace Trace
	}{
		{"clustered", clusteredTrace(rng, 100_000, 2_000, 40)},
		{"random", randomTrace(rng, 100_000, 2_500)},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Analyze(c.trace)
			}
		})
	}
}

// BenchmarkTreeAnalyzeLegacy is the pre-pooling path (fresh structures per
// trace), kept as the allocation baseline the perf report compares against.
func BenchmarkTreeAnalyzeLegacy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trace := clusteredTrace(rng, 100_000, 2_000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TreeSimulator{}.Run(trace).FetchCurve()
	}
}

var _ Simulator = (*Scratch)(nil)

var _ = storage.PageID(0)
