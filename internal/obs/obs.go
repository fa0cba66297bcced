// Package obs is the estimation service's dependency-free observability
// core: fixed-slot atomic counters and gauges, preallocated log-bucketed
// histograms, a Prometheus text-format exposition writer, W3C traceparent
// propagation, and a lock-light ring buffer of completed request traces.
//
// Everything on the serving hot path is allocation-free by construction:
//
//   - instruments are registered once, up front, with their full label sets;
//     handlers hold direct *Counter / *Histogram pointers, so recording an
//     observation is one or two atomic operations with no map lookups, no
//     locks, and no garbage;
//   - histograms are fixed arrays of atomic uint64 bucket counts over bounds
//     chosen at registration (log-spaced helpers below), with the running sum
//     kept as CAS-updated float bits — the same technique the reference
//     Prometheus client uses, without importing it;
//   - scrape-time values (catalog generation, breaker state, cache counters
//     owned elsewhere) are registered as functions and evaluated only when
//     an exposition is rendered, so mirroring them costs the hot path
//     nothing.
//
// Exposition is rendered on demand by Registry.AppendText / WriteText in the
// Prometheus text format (version 0.0.4). ParseExposition (parse.go) is the
// one reader of that format: a strict parser, independent of the writer,
// that decodes histogram series back into HistogramSnapshots. Federation
// reads peer expositions through it, and tests and the obs-check tooling
// use it to keep the writer honest.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ContentType is the Content-Type of the Prometheus text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomically settable integer gauge.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observation is a linear scan over
// the preallocated bounds plus two atomic updates, with no locks and no
// allocation. Bounds are upper bucket edges in increasing order; a final
// +Inf bucket is implicit.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %g <= %g", i, bs[i], bs[i-1]))
		}
	}
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.Bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// Bucket returns the index of the bucket v falls in: the first bound v does
// not exceed, or len(bounds) for the +Inf bucket.
func (h *Histogram) Bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// AddCounts records a batch of observations tallied elsewhere: counts[i]
// values fell in bucket i (as Bucket numbers them; len(counts) must be
// len(bounds)+1) and sum is their total. It costs one atomic add per
// non-empty bucket, one for the count and one sum CAS, however many values
// the batch holds.
func (h *Histogram) AddCounts(counts []uint64, sum float64) {
	var n uint64
	for i, c := range counts {
		if c != 0 {
			h.buckets[i].Add(c)
			n += c
		}
	}
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.addSum(sum)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state that can
// be merged with snapshots of other histograms over the same bounds — the
// building block for cluster-level metric rollups.
type HistogramSnapshot struct {
	Bounds []float64 // upper bucket edges, increasing; +Inf implicit
	Counts []uint64  // len(Bounds)+1 per-bucket (non-cumulative) counts
	Count  uint64    // total observations = sum(Counts)
	Sum    float64   // sum of observed values
}

// Snapshot copies the histogram's buckets and sum. Count is derived from the
// bucket counts so the snapshot is internally consistent even when taken
// concurrently with observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.buckets)),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Merge adds o's buckets, count, and sum into s. The bounds must match
// exactly; merging histograms over different bucket layouts is an error.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if len(s.Bounds) != len(o.Bounds) || len(s.Counts) != len(o.Counts) {
		return fmt.Errorf("obs: merge: bucket layouts differ (%d vs %d bounds)", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("obs: merge: bound %d differs (%g vs %g)", i, s.Bounds[i], o.Bounds[i])
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return nil
}

// AppendText renders the snapshot as one exposition histogram series:
// cumulative _bucket lines ending at +Inf, then _sum and _count.
func (s HistogramSnapshot) AppendText(dst []byte, name string, labels []Label) []byte {
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		dst = append(dst, name...)
		dst = append(dst, "_bucket"...)
		dst = appendLabelSet(dst, labels, "le", bound)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cum, 10)
		dst = append(dst, '\n')
	}
	if len(s.Counts) > 0 {
		cum += s.Counts[len(s.Counts)-1]
	}
	dst = append(dst, name...)
	dst = append(dst, "_bucket"...)
	dst = appendLabelSet(dst, labels, "le", math.Inf(1))
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, cum, 10)
	dst = append(dst, '\n')

	dst = append(dst, name...)
	dst = append(dst, "_sum"...)
	dst = AppendSample(dst, "", labels, s.Sum)

	dst = append(dst, name...)
	dst = append(dst, "_count"...)
	if len(labels) > 0 {
		dst = appendLabelSet(dst, labels, "", 0)
	}
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, cum, 10)
	return append(dst, '\n')
}

// AppendSample renders one exposition sample line "name{labels} value\n"
// appended to dst. An empty name renders just the label set and value — used
// to continue a line whose name prefix is already written.
func AppendSample(dst []byte, name string, labels []Label, value float64) []byte {
	dst = append(dst, name...)
	if len(labels) > 0 {
		dst = appendLabelSet(dst, labels, "", 0)
	}
	dst = append(dst, ' ')
	dst = appendSampleValue(dst, value)
	return append(dst, '\n')
}

// ExpBuckets returns n exponentially growing bounds: start, start*factor,
// start*factor^2, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Pow2Buckets returns bounds 2^lo .. 2^hi inclusive — the natural shape for
// page-count distributions.
func Pow2Buckets(lo, hi int) []float64 {
	if hi < lo {
		panic("obs: Pow2Buckets needs hi >= lo")
	}
	out := make([]float64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, math.Ldexp(1, e))
	}
	return out
}

// Label is one name=value pair attached to a metric sample at registration.
type Label struct{ Name, Value string }

// metricKind discriminates family rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// sample is one registered series inside a family. Exactly one of counter,
// gauge, fn, hist is set.
type sample struct {
	labels  string // pre-rendered `{k="v",...}` or ""
	rawLbls []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups the samples of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples []sample
}

// Registry is a fixed set of metric families. Registration happens at
// service construction (it takes a lock and allocates); recording and
// rendering afterwards are concurrency-safe.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register validates the family invariants shared by every constructor.
func (r *Registry) register(name, help string, kind metricKind, s sample) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range s.rawLbls {
		if !validLabelName(l.Name) {
			panic("obs: invalid label name " + l.Name + " on " + name)
		}
	}
	s.labels = renderLabels(s.rawLbls, "", 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered with a different type")
	}
	for _, prev := range f.samples {
		if prev.labels == s.labels {
			panic("obs: duplicate series " + name + s.labels)
		}
	}
	f.samples = append(f.samples, s)
	return f
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, sample{rawLbls: labels, counter: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, sample{rawLbls: labels, gauge: g})
	return g
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge for monotone atomics owned elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, sample{rawLbls: labels, fn: fn})
}

// GaugeFunc registers a gauge series evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, sample{rawLbls: labels, fn: fn})
}

// Histogram registers and returns a histogram series over bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, kindHistogram, sample{rawLbls: labels, hist: h})
	return h
}

// AppendText renders the registry in the Prometheus text exposition format,
// appended to dst. Families render in registration order, series in
// registration order within a family; histogram bucket counts are read once
// into a local snapshot so _count always equals the +Inf bucket. Series
// registered after construction (per-peer instruments, added on a peer's
// first hop) may land mid-render: each family is copied under the lock, and
// registration only ever appends past the copied sample list.
func (r *Registry) AppendText(dst []byte) []byte {
	r.mu.Lock()
	fams := make([]family, len(r.fams))
	for i, f := range r.fams {
		fams[i] = *f
	}
	r.mu.Unlock()
	for _, f := range fams {
		dst = append(dst, "# HELP "...)
		dst = append(dst, f.name...)
		dst = append(dst, ' ')
		dst = appendEscapedHelp(dst, f.help)
		dst = append(dst, '\n')
		dst = append(dst, "# TYPE "...)
		dst = append(dst, f.name...)
		dst = append(dst, ' ')
		dst = append(dst, f.kind.String()...)
		dst = append(dst, '\n')
		for i := range f.samples {
			s := &f.samples[i]
			var v float64
			switch {
			case s.hist != nil:
				dst = s.hist.Snapshot().AppendText(dst, f.name, s.rawLbls)
				continue
			case s.counter != nil:
				v = float64(s.counter.Value())
			case s.gauge != nil:
				v = float64(s.gauge.Value())
			case s.fn != nil:
				v = s.fn()
			}
			dst = append(dst, f.name...)
			dst = append(dst, s.labels...)
			dst = append(dst, ' ')
			dst = appendSampleValue(dst, v)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// WriteText renders the exposition to w.
func (r *Registry) WriteText(w io.Writer) error {
	_, err := w.Write(r.AppendText(nil))
	return err
}

// Families lists the registered family names in sorted order (for tests).
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f.name)
	}
	sort.Strings(out)
	return out
}

// renderLabels pre-renders a label set; leName non-empty appends le=<bound>.
func renderLabels(labels []Label, leName string, bound float64) string {
	if len(labels) == 0 && leName == "" {
		return ""
	}
	b := make([]byte, 0, 64)
	b = appendLabelSet(b, labels, leName, bound)
	return string(b)
}

func appendLabelSet(dst []byte, labels []Label, leName string, bound float64) []byte {
	dst = append(dst, '{')
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Name...)
		dst = append(dst, '=', '"')
		dst = appendEscapedLabelValue(dst, l.Value)
		dst = append(dst, '"')
	}
	if leName != "" {
		if len(labels) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, leName...)
		dst = append(dst, '=', '"')
		dst = appendSampleValue(dst, bound)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// appendSampleValue renders a float as the exposition format expects:
// shortest round-trip form, with +Inf / -Inf / NaN spelled out.
func appendSampleValue(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	case math.IsNaN(v):
		return append(dst, "NaN"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func appendEscapedLabelValue(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func appendEscapedHelp(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
