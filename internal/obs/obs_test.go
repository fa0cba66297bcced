package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("epfis_test_total", "test counter")
	g := r.Gauge("epfis_test_depth", "test gauge")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("epfis_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-102.65) > 1e-9 {
		t.Fatalf("sum = %g, want 102.65", got)
	}
	text := string(r.AppendText(nil))
	for _, want := range []string{
		`epfis_test_seconds_bucket{le="0.1"} 2`,
		`epfis_test_seconds_bucket{le="1"} 3`,
		`epfis_test_seconds_bucket{le="10"} 4`,
		`epfis_test_seconds_bucket{le="+Inf"} 5`,
		`epfis_test_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHistogramAddCountsMatchesObserve tallies values through Bucket and adds
// them in one AddCounts; the snapshot must equal one built by Observe.
func TestHistogramAddCountsMatchesObserve(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	values := []float64{0.05, 0.1, 0.5, 2, 100, 0.25, 10}
	one, bulk := newHistogram(bounds), newHistogram(bounds)
	counts := make([]uint64, len(bounds)+1)
	var sum float64
	for _, v := range values {
		one.Observe(v)
		counts[bulk.Bucket(v)]++
		sum += v // the order Observe adds in, so the sums agree bit for bit
	}
	bulk.AddCounts(counts, sum)
	bulk.AddCounts(make([]uint64, len(counts)), 0) // an empty tally is a no-op
	a, b := one.Snapshot(), bulk.Snapshot()
	if a.Count != b.Count || a.Sum != b.Sum || one.Count() != bulk.Count() {
		t.Fatalf("count/sum: Observe %d/%g, AddCounts %d/%g", a.Count, a.Sum, b.Count, b.Sum)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("bucket %d: Observe %d, AddCounts %d", i, a.Counts[i], b.Counts[i])
		}
	}
}

func TestExpositionValidatesAndEscapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("epfis_routes_total", "requests",
		Label{Name: "route", Value: `GET "/v1/estimate"` + "\n\\x"})
	r.Counter("epfis_routes_total", "requests", Label{Name: "route", Value: "other"})
	r.GaugeFunc("epfis_up", "always one", func() float64 { return 1 })
	r.CounterFunc("epfis_scraped_total", "scrape bridge", func() float64 { return 42 })
	h := r.Histogram("epfis_lat_seconds", "latency", ExpBuckets(1e-6, 10, 5),
		Label{Name: "route", Value: "a"})
	h.Observe(3e-4)
	h.Observe(2)
	u := r.Histogram("epfis_size_pages", "unlabelled \\ sizes\nin pages", []float64{1, 4})
	u.Observe(3)
	u.Observe(0.5)
	u.Observe(3)
	r.Histogram("epfis_empty_seconds", "never observed", []float64{0.5})

	data := r.AppendText(nil)
	if _, err := ParseExposition(data); err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, data)
	}
	// The whole rendering, byte for byte: label and HELP escaping, shortest
	// float spelling of bounds and sums, labelled, unlabelled and empty
	// histograms.
	const want = `# HELP epfis_routes_total requests
# TYPE epfis_routes_total counter
epfis_routes_total{route="GET \"/v1/estimate\"\n\\x"} 0
epfis_routes_total{route="other"} 0
# HELP epfis_up always one
# TYPE epfis_up gauge
epfis_up 1
# HELP epfis_scraped_total scrape bridge
# TYPE epfis_scraped_total counter
epfis_scraped_total 42
# HELP epfis_lat_seconds latency
# TYPE epfis_lat_seconds histogram
epfis_lat_seconds_bucket{route="a",le="1e-06"} 0
epfis_lat_seconds_bucket{route="a",le="9.999999999999999e-06"} 0
epfis_lat_seconds_bucket{route="a",le="9.999999999999999e-05"} 0
epfis_lat_seconds_bucket{route="a",le="0.001"} 1
epfis_lat_seconds_bucket{route="a",le="0.01"} 1
epfis_lat_seconds_bucket{route="a",le="+Inf"} 2
epfis_lat_seconds_sum{route="a"} 2.0003
epfis_lat_seconds_count{route="a"} 2
# HELP epfis_size_pages unlabelled \\ sizes\nin pages
# TYPE epfis_size_pages histogram
epfis_size_pages_bucket{le="1"} 1
epfis_size_pages_bucket{le="4"} 3
epfis_size_pages_bucket{le="+Inf"} 3
epfis_size_pages_sum 6.5
epfis_size_pages_count 3
# HELP epfis_empty_seconds never observed
# TYPE epfis_empty_seconds histogram
epfis_empty_seconds_bucket{le="0.5"} 0
epfis_empty_seconds_bucket{le="+Inf"} 0
epfis_empty_seconds_sum 0
epfis_empty_seconds_count 0
`
	if string(data) != want {
		t.Fatalf("exposition drifted:\n got:\n%s\nwant:\n%s", data, want)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad metric name", func() { NewRegistry().Counter("0bad", "x") })
	expectPanic("bad label name", func() {
		NewRegistry().Counter("epfis_ok_total", "x", Label{Name: "0bad", Value: "v"})
	})
	expectPanic("duplicate series", func() {
		r := NewRegistry()
		r.Counter("epfis_dup_total", "x")
		r.Counter("epfis_dup_total", "x")
	})
	expectPanic("kind mismatch", func() {
		r := NewRegistry()
		r.Counter("epfis_kind_total", "x")
		r.Gauge("epfis_kind_total", "x", Label{Name: "a", Value: "b"})
	})
	expectPanic("non-increasing bounds", func() {
		NewRegistry().Histogram("epfis_h_seconds", "x", []float64{1, 1})
	})
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(exp[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets[%d] = %g, want %g", i, exp[i], want[i])
		}
	}
	p2 := Pow2Buckets(0, 3)
	if len(p2) != 4 || p2[0] != 1 || p2[3] != 8 {
		t.Fatalf("Pow2Buckets = %v", p2)
	}
}

func TestObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("epfis_alloc_total", "x")
	g := r.Gauge("epfis_alloc_depth", "x")
	h := r.Histogram("epfis_alloc_seconds", "x", ExpBuckets(1e-6, 4, 12))
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(3)
		h.Observe(0.007)
	}); n != 0 {
		t.Fatalf("hot-path instruments allocate %.1f/op, want 0", n)
	}
}

func TestFamiliesSortedAndConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("epfis_b_total", "b")
	r.Counter("epfis_a_total", "a")
	fams := r.Families()
	if len(fams) != 2 || fams[0] != "epfis_a_total" || fams[1] != "epfis_b_total" {
		t.Fatalf("Families() = %v", fams)
	}
	// Concurrent record + scrape must be race-free (run under -race).
	h := r.Histogram("epfis_c_seconds", "c", []float64{1})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i))
		}
		close(done)
	}()
	for i := 0; i < 50; i++ {
		if _, err := ParseExposition(r.AppendText(nil)); err != nil {
			t.Fatalf("concurrent scrape invalid: %v", err)
		}
	}
	<-done
}
