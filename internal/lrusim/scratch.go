package lrusim

import "sync"

// Scratch is a reusable one-shot Mattson stack simulator: an Accum that is
// reset, fed one whole trace and read once per run. It produces exactly the
// histograms and fetch curves of TreeSimulator, and keeps every working
// structure between runs, so repeated analyses (the 200 scans per error
// sweep, the calibration bisection, the modeling pass per figure) allocate
// only the result they return. Its memory is bounded by the distinct pages
// of the largest trace it has analyzed, not by trace length.
//
// A Scratch is not safe for concurrent use; give each goroutine its own
// (workload.Measure does), or go through Analyze, which draws from an
// internal pool.
type Scratch struct{ acc Accum }

// NewScratch returns an empty reusable simulator.
func NewScratch() *Scratch { return &Scratch{} }

// Run implements Simulator: it consumes the trace and returns a fresh
// Histogram (the counts are copied out, so the result outlives any further
// reuse).
func (s *Scratch) Run(t Trace) *Histogram {
	s.load(t)
	return s.acc.Histogram()
}

// Analyze consumes the trace and returns its fetch curve. This is the
// allocation-lean path: the only allocations are the returned FetchCurve and
// its cumulative array (both must escape; everything else is reused).
func (s *Scratch) Analyze(t Trace) *FetchCurve {
	s.load(t)
	return s.acc.Curve()
}

func (s *Scratch) load(t Trace) {
	s.acc.Reset()
	s.acc.Feed(t)
}

// scratchPool backs the package-level Analyze so every existing call site
// gets the pooled path without holding a Scratch of its own.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// AnalyzePooled computes the trace's fetch curve using a pooled Scratch.
func AnalyzePooled(t Trace) *FetchCurve {
	s := scratchPool.Get().(*Scratch)
	c := s.Analyze(t)
	scratchPool.Put(s)
	return c
}
