package obs

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestHistogramSnapshotMergeMatchesCombinedStream is the merge property the
// federation rollup depends on: splitting one observation stream across two
// histograms and merging their snapshots must equal observing the whole
// stream into one histogram — bucket-wise, count-wise, and (with integer
// observations, where float addition is exact) sum-wise.
func TestHistogramSnapshotMergeMatchesCombinedStream(t *testing.T) {
	bounds := ExpBuckets(1, 2, 10)
	reg := NewRegistry()
	h1 := reg.Histogram("m_one", "first shard", bounds)
	h2 := reg.Histogram("m_two", "second shard", bounds)
	hBoth := reg.Histogram("m_both", "combined stream", bounds)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := float64(rng.Intn(2048))
		if rng.Intn(2) == 0 {
			h1.Observe(v)
		} else {
			h2.Observe(v)
		}
		hBoth.Observe(v)
	}

	merged := h1.Snapshot()
	if err := merged.Merge(h2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := hBoth.Snapshot()
	if merged.Count != want.Count {
		t.Fatalf("merged Count = %d, combined stream %d", merged.Count, want.Count)
	}
	if merged.Sum != want.Sum {
		t.Fatalf("merged Sum = %g, combined stream %g", merged.Sum, want.Sum)
	}
	if !reflect.DeepEqual(merged.Bounds, want.Bounds) {
		t.Fatalf("merged Bounds = %v, combined stream %v", merged.Bounds, want.Bounds)
	}
	if !reflect.DeepEqual(merged.Counts, want.Counts) {
		t.Fatalf("merged Counts = %v, combined stream %v", merged.Counts, want.Counts)
	}
}

func TestHistogramSnapshotMergeRejectsMismatchedBounds(t *testing.T) {
	reg := NewRegistry()
	a := reg.Histogram("bounds_a", "h", []float64{1, 2}).Snapshot()
	b := reg.Histogram("bounds_b", "h", []float64{1, 3}).Snapshot()
	if err := a.Merge(b); err == nil {
		t.Fatal("merging snapshots with different bounds succeeded")
	}
	c := reg.Histogram("bounds_c", "h", []float64{1, 2, 3}).Snapshot()
	if err := a.Merge(c); err == nil {
		t.Fatal("merging snapshots with different bucket counts succeeded")
	}
}

// TestHistogramSnapshotAppendTextValidates renders a merged snapshot the way
// the federation endpoint does and checks the output is a valid exposition
// fragment that parses back to the same distribution.
func TestHistogramSnapshotAppendTextValidates(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_secs", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	snap := h.Snapshot()

	var buf []byte
	buf = append(buf, "# TYPE lat_merged histogram\n"...)
	buf = snap.AppendText(buf, "lat_merged", []Label{{Name: "node", Value: "cluster"}})
	fams, err := ParseExposition(buf)
	if err != nil {
		t.Fatalf("snapshot rendering is not a valid exposition: %v\n%s", err, buf)
	}
	if len(fams) != 1 || fams[0].Name != "lat_merged" {
		t.Fatalf("parsed families = %+v, want one lat_merged", fams)
	}
	var count, inf float64
	for _, smp := range fams[0].Samples {
		if node, _ := smp.LabelValue("node"); node != "cluster" {
			t.Fatalf("sample %s lost the node label: %+v", smp.Name, smp.Labels)
		}
		switch {
		case smp.Name == "lat_merged_count":
			count = smp.Value
		case strings.HasSuffix(smp.Name, "_bucket"):
			if le, _ := smp.LabelValue("le"); le == "+Inf" {
				inf = smp.Value
			}
		}
	}
	if count != 3 || inf != 3 {
		t.Fatalf("_count = %g, +Inf bucket = %g, want 3 observations", count, inf)
	}
}

// TestParseExpositionStructure round-trips a registry rendering through the
// parser: family order, declared types, histogram suffix folding, and label
// values must all survive.
func TestParseExpositionStructure(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests", Label{Name: "route", Value: "/x"})
	c.Add(3)
	h := reg.Histogram("dur_seconds", "durations", []float64{1, 2})
	h.Observe(1.5)
	reg.GaugeFunc("up_g", "up", func() float64 { return 1 })

	fams, err := ParseExposition(reg.AppendText(nil))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ExpoFamily{}
	var order []string
	for _, f := range fams {
		byName[f.Name] = f
		order = append(order, f.Name)
	}
	if !reflect.DeepEqual(order, []string{"reqs_total", "dur_seconds", "up_g"}) {
		t.Fatalf("family order = %v, want registration order", order)
	}
	if f := byName["reqs_total"]; f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 3 {
		t.Fatalf("reqs_total = %+v", f)
	}
	if route, ok := byName["reqs_total"].Samples[0].LabelValue("route"); !ok || route != "/x" {
		t.Fatalf("reqs_total route label = %q", route)
	}
	// Histogram suffixes fold into the base family: 3 bucket lines (two
	// bounds plus +Inf), _sum, and _count.
	if f := byName["dur_seconds"]; f.Type != "histogram" || len(f.Samples) != 5 {
		t.Fatalf("dur_seconds = %d samples of type %q, want 5 histogram samples", len(f.Samples), f.Type)
	}
	if f := byName["up_g"]; f.Type != "gauge" || f.Samples[0].Value != 1 {
		t.Fatalf("up_g = %+v", f)
	}

	if _, err := ParseExposition([]byte("1bad_name 2\n")); err == nil {
		t.Fatal("malformed metric name parsed without error")
	}
	if _, err := ParseExposition([]byte("ok_name not-a-number\n")); err == nil {
		t.Fatal("malformed value parsed without error")
	}
}
