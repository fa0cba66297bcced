package obs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// acceptedExposition exercises every accepted line form: typed and untyped
// families, a histogram, a timestamp, escapes and a NaN value.
var acceptedExposition = strings.Join([]string{
	"# HELP epfis_requests_total Requests served.",
	"# TYPE epfis_requests_total counter",
	`epfis_requests_total{route="GET /v1/estimate",status="2xx"} 12`,
	`epfis_requests_total{route="GET /v1/estimate",status="5xx"} 0`,
	"# HELP epfis_lat_seconds Latency.",
	"# TYPE epfis_lat_seconds histogram",
	`epfis_lat_seconds_bucket{le="0.001"} 2`,
	`epfis_lat_seconds_bucket{le="0.01"} 5`,
	`epfis_lat_seconds_bucket{le="+Inf"} 7`,
	"epfis_lat_seconds_sum 0.042",
	"epfis_lat_seconds_count 7",
	"# TYPE epfis_up gauge",
	"epfis_up 1",
	"epfis_untyped_thing 3.5 1700000000000",
	`epfis_escaped{v="a\"b\\c\nd"} NaN`,
	"",
}, "\n")

// groupedHistogram is one histogram family with two label sets.
const groupedHistogram = "# TYPE epfis_h histogram\n" +
	`epfis_h_bucket{route="a",le="1"} 1` + "\n" +
	`epfis_h_bucket{route="a",le="+Inf"} 2` + "\n" +
	`epfis_h_count{route="a"} 2` + "\n" +
	`epfis_h_bucket{route="b",le="1"} 9` + "\n" +
	`epfis_h_bucket{route="b",le="+Inf"} 9` + "\n" +
	`epfis_h_count{route="b"} 9` + "\n"

// federatedExposition has the shape GET /v1/cluster/metrics serves:
// per-node series, node="cluster" rollups, and the peer-up gauge.
const federatedExposition = `# HELP epfis_estimates_total Individual estimates served.
# TYPE epfis_estimates_total counter
epfis_estimates_total{node="node-a"} 3
epfis_estimates_total{node="node-b"} 4
epfis_estimates_total{node="cluster"} 7
# HELP epfis_http_request_duration_seconds Request latency by route.
# TYPE epfis_http_request_duration_seconds histogram
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",le="1e-06",node="node-a"} 0
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",le="4e-06",node="node-a"} 2
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",le="+Inf",node="node-a"} 3
epfis_http_request_duration_seconds_sum{route="GET /v1/estimate",node="node-a"} 1.2e-05
epfis_http_request_duration_seconds_count{route="GET /v1/estimate",node="node-a"} 3
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",le="1e-06",node="node-b"} 1
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",le="4e-06",node="node-b"} 1
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",le="+Inf",node="node-b"} 4
epfis_http_request_duration_seconds_sum{route="GET /v1/estimate",node="node-b"} 2.5e-05
epfis_http_request_duration_seconds_count{route="GET /v1/estimate",node="node-b"} 4
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",node="cluster",le="1e-06"} 1
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",node="cluster",le="4e-06"} 3
epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",node="cluster",le="+Inf"} 7
epfis_http_request_duration_seconds_sum{route="GET /v1/estimate",node="cluster"} 3.7e-05
epfis_http_request_duration_seconds_count{route="GET /v1/estimate",node="cluster"} 7
# HELP epfis_federation_peer_up 1 when the node answered the federated metrics scrape, 0 when it did not.
# TYPE epfis_federation_peer_up gauge
epfis_federation_peer_up{node="node-a"} 1
epfis_federation_peer_up{node="node-b"} 1
epfis_federation_peer_up{node="node-c"} 0
`

// rejectedExpositions lists malformed inputs with the error text each must
// produce.
var rejectedExpositions = []struct {
	name string
	text string
	want string
}{
	{"bad metric name", "0bad 1\n", "invalid metric name"},
	{"bad value", "epfis_x notanumber\n", "bad value"},
	{"bad timestamp", "epfis_x 1 soon\n", "bad timestamp"},
	{"bad label name", `epfis_x{0l="v"} 1` + "\n", "invalid label name"},
	{"unquoted label", `epfis_x{l=v} 1` + "\n", "not quoted"},
	{"unterminated label", `epfis_x{l="v} 1` + "\n", "unterminated"},
	{"bad escape", `epfis_x{l="\t"} 1` + "\n", "bad escape"},
	{"bad type", "# TYPE epfis_x frobnicator\n", "unknown metric type"},
	{"duplicate type", "# TYPE epfis_x counter\n# TYPE epfis_x counter\n", "duplicate TYPE"},
	{"type after samples", "epfis_x 1\n# TYPE epfis_x counter\n", "after its samples"},
	{"duplicate series", "epfis_x 1\nepfis_x 2\n", "duplicate series"},
	{
		"bucket without le",
		"# TYPE epfis_h histogram\nepfis_h_bucket 1\n",
		"without le",
	},
	{
		"missing +Inf",
		"# TYPE epfis_h histogram\n" + `epfis_h_bucket{le="1"} 1` + "\nepfis_h_count 1\n",
		"does not end with",
	},
	{
		"non-monotonic buckets",
		"# TYPE epfis_h histogram\n" +
			`epfis_h_bucket{le="1"} 5` + "\n" +
			`epfis_h_bucket{le="2"} 3` + "\n" +
			`epfis_h_bucket{le="+Inf"} 5` + "\n",
		"decrease",
	},
	{
		"unsorted bounds",
		"# TYPE epfis_h histogram\n" +
			`epfis_h_bucket{le="2"} 1` + "\n" +
			`epfis_h_bucket{le="1"} 2` + "\n" +
			`epfis_h_bucket{le="+Inf"} 2` + "\n",
		"not increasing",
	},
	{
		"count mismatch",
		"# TYPE epfis_h histogram\n" +
			`epfis_h_bucket{le="+Inf"} 5` + "\nepfis_h_count 4\n",
		"_count 4 != +Inf bucket 5",
	},
	{
		"fractional bucket count",
		"# TYPE epfis_h histogram\n" + `epfis_h_bucket{le="+Inf"} 1.5` + "\n",
		"not a non-negative integer",
	},
	{
		"NaN bound",
		"# TYPE epfis_h histogram\n" +
			`epfis_h_bucket{le="NaN"} 1` + "\n" +
			`epfis_h_bucket{le="+Inf"} 1` + "\n",
		"not increasing",
	},
	{
		"histogram type after a suffixed sample",
		"epfis_h_bucket 1\n# TYPE epfis_h histogram\n",
		"after its samples",
	},
}

func TestParseExpositionAccepts(t *testing.T) {
	fams, err := ParseExposition([]byte(acceptedExposition))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	var lat *ExpoFamily
	for i := range fams {
		if fams[i].Name == "epfis_lat_seconds" {
			lat = &fams[i]
		}
	}
	if lat == nil || lat.Type != "histogram" || len(lat.Histograms) != 1 {
		t.Fatalf("epfis_lat_seconds not decoded: %+v", lat)
	}
	want := HistogramSnapshot{
		Bounds: []float64{0.001, 0.01},
		Counts: []uint64{2, 3, 2},
		Count:  7,
		Sum:    0.042,
	}
	if got := lat.Histograms[0]; len(got.Labels) != 0 || !reflect.DeepEqual(got.HistogramSnapshot, want) {
		t.Fatalf("decoded histogram = %+v, want %+v", got, want)
	}
}

func TestParseExpositionRejects(t *testing.T) {
	for _, tc := range rejectedExpositions {
		_, err := ParseExposition([]byte(tc.text))
		if err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.text)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseExpositionHistogramGroupsByLabels(t *testing.T) {
	// Two label sets of the same histogram family decode independently.
	fams, err := ParseExposition([]byte(groupedHistogram))
	if err != nil {
		t.Fatalf("grouped histogram rejected: %v", err)
	}
	hs := fams[0].Histograms
	if len(hs) != 2 || hs[0].CanonicalLabels() != `route="a"` || hs[1].CanonicalLabels() != `route="b"` ||
		hs[0].Count != 2 || hs[1].Count != 9 {
		t.Fatalf("decoded groups = %+v", hs)
	}
	broken := strings.Replace(groupedHistogram, `epfis_h_count{route="b"} 9`, `epfis_h_count{route="b"} 8`, 1)
	if _, err := ParseExposition([]byte(broken)); err == nil {
		t.Fatal("mismatched group accepted")
	}
}

// FuzzParseExposition holds the parser federation feeds peer bytes to: it
// never panics, every decoded histogram has strictly increasing bounds and
// a Count equal to the sum of its buckets, and re-rendering the accepted
// families parses back to the same families, floats compared by bits.
func FuzzParseExposition(f *testing.F) {
	for _, tc := range rejectedExpositions {
		f.Add(tc.text)
	}
	f.Add(acceptedExposition)
	f.Add(groupedHistogram)
	f.Add(federatedExposition)
	reg := NewRegistry()
	reg.Counter("epfis_routes_total", "requests", Label{Name: "route", Value: "a\"\\\nb"}).Add(3)
	reg.GaugeFunc("epfis_up", "up", func() float64 { return 1 })
	h := reg.Histogram("epfis_lat_seconds", "latency", ExpBuckets(1e-6, 4, 5), Label{Name: "route", Value: "a"})
	h.Observe(3e-6)
	h.Observe(2)
	reg.Histogram("epfis_size_pages", "sizes", []float64{1, 2})
	f.Add(string(reg.AppendText(nil)))

	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseExposition([]byte(text))
		if err != nil {
			return
		}
		for _, fam := range fams {
			for _, h := range fam.Histograms {
				if len(h.Counts) != len(h.Bounds)+1 {
					t.Fatalf("%s: %d counts for %d bounds", fam.Name, len(h.Counts), len(h.Bounds))
				}
				var n uint64
				for i, c := range h.Counts {
					if i > 0 && i < len(h.Bounds) && !(h.Bounds[i] > h.Bounds[i-1]) {
						t.Fatalf("%s: bounds not increasing: %v", fam.Name, h.Bounds)
					}
					n += c
				}
				if n != h.Count {
					t.Fatalf("%s: Count %d != sum of buckets %d", fam.Name, h.Count, n)
				}
			}
		}
		again, err := ParseExposition(renderFamilies(fams))
		if err != nil {
			t.Fatalf("re-rendered families do not parse: %v\n%s", err, renderFamilies(fams))
		}
		if got, want := familyBits(again), familyBits(fams); got != want {
			t.Fatalf("round trip changed the families:\n got %s\nwant %s", got, want)
		}
	})
}

// renderFamilies writes parsed families back out as an exposition: HELP,
// TYPE, then every sample line.
func renderFamilies(fams []ExpoFamily) []byte {
	var b []byte
	for _, f := range fams {
		b = append(b, "# HELP "+f.Name+" "+f.Help+"\n"...)
		if f.Type != "" {
			b = append(b, "# TYPE "+f.Name+" "+f.Type+"\n"...)
		}
		for _, s := range f.Samples {
			b = AppendSample(b, s.Name, s.Labels, s.Value)
		}
	}
	return b
}

// familyBits prints families with every float as its bit pattern, so NaN
// and -0 compare exactly.
func familyBits(fams []ExpoFamily) string {
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "family %q %q %q\n", f.Name, f.Type, f.Help)
		for _, s := range f.Samples {
			fmt.Fprintf(&b, "  sample %q %q %x\n", s.Name, s.Labels, math.Float64bits(s.Value))
		}
		for _, h := range f.Histograms {
			fmt.Fprintf(&b, "  histogram %q %v %d %x", h.Labels, h.Counts, h.Count, math.Float64bits(h.Sum))
			for _, bound := range h.Bounds {
				fmt.Fprintf(&b, " %x", math.Float64bits(bound))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
