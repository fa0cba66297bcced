package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end and per-layer lists
// are the ones BENCHMARK.json declares.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd is what a user of the service sees. Every workload reports all
// of them; on read-cold-batch the read is the 64-plan batch request.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"read_p50_us", "us", false},
	{"read_p99_us", "us", false},
	{"estimates_per_s", "1/s", true},
	{"live_heap_mb", "MB", false},
}

// perLayer comes from the traced run, /metrics and the layer ladder. A
// metric a workload does not exercise reads 0. The write-path latencies
// are here rather than end to end because only one workload each has them.
var perLayer = []metricDef{
	{"put_p50_us", "us", false},
	{"put_p99_us", "us", false},
	{"ingest_refs_per_s", "refs/s", true},
	{"ingest_ack_p50_us", "us", false},
	{"ingest_ack_p99_us", "us", false},
	{"net.self_us", "us", false},
	{"net.echo_us", "us", false},
	{"net.dials", "count", false},
	{"service.handler_us", "us", false},
	{"service.stage.parse_us", "us", false},
	{"service.stage.cache_us", "us", false},
	{"service.stage.estimate_us", "us", false},
	{"service.stage.encode_us", "us", false},
	{"service.stage.proxy_us", "us", false},
	{"service.middleware_us", "us", false},
	{"service.cache_hit_ratio", "ratio", true},
	{"service.inproc_single_ns", "ns", false},
	{"service.inproc_batch64_ns", "ns", false},
	{"service.inproc_hit_ns", "ns", false},
	{"service.inproc_miss_ns", "ns", false},
	{"ingest.handler_us", "us", false},
	{"ingest.shed_ratio", "ratio", false},
	{"ingest.scans", "count", true},
	{"ingest.republishes", "count", true},
	{"core.estio_ns", "ns", false},
	{"core.compiled_ns", "ns", false},
	{"core.lrufit_ms", "ms", false},
	{"core.lrufit_from_curve_us", "us", false},
	{"lrusim.feed_ns_per_ref", "ns", false},
	{"catalog.lookup_ns", "ns", false},
	{"catalog.put_wal_us", "us", false},
	{"catalog.fsyncs_per_commit", "ratio", false},
	{"catalog.wal_bytes_per_commit", "B", false},
	{"cluster.forward_us", "us", false},
	{"cluster.proxied_ratio", "ratio", false},
	{"cluster.replicate_us", "us", false},
	{"cluster.fastack_ratio", "ratio", true},
	{"cluster.hints", "count", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"runtime.alloc_bytes_per_op", "B", false},
	{"trace.overhead_us", "us", false},
	{"trace.attribution_residual", "ratio", false},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`
}

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place) and whether at least ten samples lie beyond it, which is the rule
// for reporting a percentile: p99 needs 1,000 samples, p50 needs 20.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || float64(n)*(1-q) < 10 {
		return 0, false
	}
	sort.Float64s(samples)
	i := int(math.Ceil(q*float64(n))) - 1
	return samples[max(i, 0)], true
}

// p50 is the median without the sample-count rule, for small sets such as
// repeated set-ups; 0 when empty.
func p50(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) with the
// default exclusive method, so spreads reported here equal ones computed
// from the same values in Python. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
