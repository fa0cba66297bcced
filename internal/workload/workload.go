// Package workload generates the paper's experimental scan workloads (§5)
// and measures the quantities the error metric needs.
//
// A partial scan is described by starting and stopping key values. The paper
// draws scans as follows: a "small" scan draws r uniformly from [0, 0.2), a
// "large" scan from [0.2, 1]; a starting key k1 is picked at random so that
// at least rN records have key values >= k1, and the stopping key k2 is the
// smallest key >= k1 such that the range [k1, k2] contains >= rN records.
// The comparison workload is 200 scans with equal probability of small and
// large.
//
// The error metric is the paper's aggregate relative error,
//
//	sum_i (e_i - a_i) / sum_i a_i,
//
// chosen over mean per-scan relative error because "for the optimizer, it is
// the absolute difference that is important".
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"epfis/internal/datagen"
	"epfis/internal/lrusim"
)

// Scan is one partial index scan, expressed over the dataset's index-entry
// array: entries [Lo, Hi) qualify. Scans always align with key-value
// boundaries (start/stop conditions are predicates on key values).
type Scan struct {
	// Lo and Hi delimit the qualifying index entries, [Lo, Hi).
	Lo, Hi int
	// StartKey and StopKey are the inclusive key-range endpoints.
	StartKey, StopKey int64
	// Sigma is the exact selectivity (Hi-Lo)/N.
	Sigma float64
}

// Records returns the number of qualifying records.
func (s Scan) Records() int { return s.Hi - s.Lo }

// Generator draws scans over one dataset, deterministically per seed.
type Generator struct {
	ds     *datagen.Dataset
	bounds []int // bounds[k] = first entry index of the k-th distinct key
	rng    *rand.Rand
}

// ErrEmptyDataset reports a dataset with no entries.
var ErrEmptyDataset = errors.New("workload: empty dataset")

// NewGenerator prepares a scan generator for the dataset.
func NewGenerator(ds *datagen.Dataset, seed int64) (*Generator, error) {
	if len(ds.Keys) == 0 {
		return nil, ErrEmptyDataset
	}
	return &Generator{ds: ds, bounds: ds.KeyRankBounds(), rng: rand.New(rand.NewSource(seed))}, nil
}

// scanFor draws one scan with target fraction r of the records.
func (g *Generator) scanFor(r float64) Scan {
	n := len(g.ds.Keys)
	count := int(math.Ceil(r * float64(n)))
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	// Starting keys s with at least count records at or above bounds[s]:
	// bounds[s] <= n - count. bounds is sorted, binary search the cutoff.
	keys := len(g.bounds) - 1
	cutoff := sort.SearchInts(g.bounds[:keys], n-count+1) // first s with bounds[s] > n-count
	if cutoff < 1 {
		cutoff = 1
	}
	s := g.rng.Intn(cutoff)
	lo := g.bounds[s]
	// Smallest e >= s with bounds[e+1] - lo >= count.
	e := sort.SearchInts(g.bounds[s+1:], lo+count) + s
	if e >= keys {
		e = keys - 1
	}
	hi := g.bounds[e+1]
	return Scan{
		Lo: lo, Hi: hi,
		StartKey: g.ds.Keys[lo],
		StopKey:  g.ds.Keys[hi-1],
		Sigma:    float64(hi-lo) / float64(n),
	}
}

// Small draws a small scan: r uniform in [0, 0.2).
func (g *Generator) Small() Scan { return g.scanFor(g.rng.Float64() * 0.2) }

// Large draws a large scan: r uniform in [0.2, 1].
func (g *Generator) Large() Scan { return g.scanFor(0.2 + g.rng.Float64()*0.8) }

// Full returns the full index scan.
func (g *Generator) Full() Scan {
	n := len(g.ds.Keys)
	return Scan{
		Lo: 0, Hi: n,
		StartKey: g.ds.Keys[0], StopKey: g.ds.Keys[n-1],
		Sigma: 1,
	}
}

// Mix draws count scans; each is small with probability smallProb, otherwise
// large. The paper's standard workload is Mix(200, 0.5).
func (g *Generator) Mix(count int, smallProb float64) []Scan {
	scans := make([]Scan, count)
	for i := range scans {
		if g.rng.Float64() < smallProb {
			scans[i] = g.Small()
		} else {
			scans[i] = g.Large()
		}
	}
	return scans
}

// Measured pairs a scan with its exact LRU fetch curve, so the actual page
// fetches a_i at any buffer size B are an O(1) lookup.
type Measured struct {
	Scan  Scan
	Curve *lrusim.FetchCurve
}

// Measure computes the fetch curve of each scan's partial trace with one
// Mattson stack pass per scan. The curve gives the ground-truth a_i for
// every buffer size simultaneously. Passes are independent pure
// computations, so they run on all CPUs; the result order matches scans.
// Workers claim scan indexes off an atomic counter (no feeder goroutine,
// no per-index channel handoff) and each owns one lrusim.Scratch plus one
// trace buffer, so a 200-scan measurement reuses per-worker structures
// instead of allocating fresh maps, trees, and histograms per scan.
func Measure(ds *datagen.Dataset, scans []Scan) []Measured {
	out := make([]Measured, len(scans))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(scans) {
		workers = len(scans)
	}
	measureRange := func(scratch *lrusim.Scratch, buf lrusim.Trace, i int) lrusim.Trace {
		s := scans[i]
		buf = ds.SliceTraceInto(buf, s.Lo, s.Hi)
		out[i] = Measured{Scan: s, Curve: scratch.Analyze(buf)}
		return buf
	}
	if workers <= 1 {
		scratch := lrusim.NewScratch()
		var buf lrusim.Trace
		for i := range scans {
			buf = measureRange(scratch, buf, i)
		}
		return out
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := lrusim.NewScratch()
			var buf lrusim.Trace
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scans) {
					return
				}
				buf = measureRange(scratch, buf, i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ErrorMetric accumulates the paper's aggregate relative error.
type ErrorMetric struct {
	sumEst, sumActual float64
	n                 int
}

// Add records one (estimate, actual) pair.
func (m *ErrorMetric) Add(estimate, actual float64) {
	m.sumEst += estimate
	m.sumActual += actual
	m.n++
}

// Count reports the number of pairs.
func (m *ErrorMetric) Count() int { return m.n }

// Relative returns sum(e_i - a_i) / sum(a_i), the paper's metric,
// or an error when no actuals were recorded.
func (m *ErrorMetric) Relative() (float64, error) {
	if m.sumActual == 0 {
		return 0, fmt.Errorf("workload: error metric undefined: sum of actuals is zero (%d pairs)", m.n)
	}
	return (m.sumEst - m.sumActual) / m.sumActual, nil
}

// Percent returns Relative() * 100.
func (m *ErrorMetric) Percent() (float64, error) {
	r, err := m.Relative()
	return r * 100, err
}

// BufferSweep returns the buffer sizes the paper's error plots sweep: from
// max(minAbs, 0.05*T) to 0.9*T in steps of 0.05*T. The paper uses
// minAbs = 300; scaled-down experiments pass a proportionally smaller floor.
// The sweep is empty when the floor exceeds 0.9*T.
//
// Points are computed by integer index — round(lo + i*step) — rather than by
// accumulating b += step, so no floating-point drift builds up across the
// sweep. The point count comes from the closed form once; its tolerance only
// absorbs the representation error of step and hi themselves (e.g. T=10000:
// lo + 17*step and 0.9*T are both "9000" up to ulps), not accumulated error.
func BufferSweep(t int64, minAbs int64) []int {
	step := float64(t) * 0.05
	if step < 1 {
		step = 1
	}
	lo := math.Max(float64(minAbs), step)
	hi := 0.9 * float64(t)
	n := int(math.Floor((hi-lo)/step+1e-9)) + 1
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(math.Round(lo + float64(i)*step))
	}
	return out
}
