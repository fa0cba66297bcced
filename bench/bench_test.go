package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; needs 1,000 so that 10 lie beyond it")
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples reported; needs 20")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredIntervalOnce(t *testing.T) {
	for _, c := range []struct {
		children [][2]int64
		want     int64
	}{
		{nil, 100},
		{[][2]int64{{10, 30}, {20, 40}}, 70},           // overlapping children count once
		{[][2]int64{{90, 120}, {-5, 5}}, 85},           // clipped to the parent
		{[][2]int64{{10, 20}, {50, 60}, {55, 70}}, 70}, // disjoint and overlapping
		{[][2]int64{{0, 100}, {10, 20}}, 0},            // fully covered
		{[][2]int64{{200, 300}}, 100},                  // outside the parent
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("selfTime(0, 100, %v) = %d, want %d", c.children, got, c.want)
		}
	}
}

// A proxied request: client -> handler on node-a -> forward hop -> handler
// on node-b; link must rebuild that chain from the wire span IDs.
func TestLinkRebuildsTheCallChain(t *testing.T) {
	const tr = "be7c0000000000010000000000000000"
	spans := []span{
		{ID: 1, Name: spanClient, Route: kindRoutes[opEstimate], Trace: tr, Start: 0, End: 100, sent: "c1"},
		{ID: 2, Name: spanHandler, Node: "node-a", Trace: tr, Start: 10, End: 90, recv: "c1"},
		{ID: 3, Name: spanForward, Node: "node-a", Trace: tr, Start: 20, End: 80, sent: "h1"},
		{ID: 4, Name: spanHandler, Node: "node-b", Trace: tr, Start: 30, End: 70, recv: "h1"},
		{ID: 5, Name: spanWALSync, Node: "node-b", Start: 40, End: 50},
	}
	st := analyzeSpans(spans, kindRoutes[opEstimate])
	for id, want := range map[int]uint64{0: 0, 1: 1, 2: 2, 3: 3, 4: 0} {
		if got := spans[id].Parent; got != want {
			t.Errorf("span %d parent = %d, want %d", spans[id].ID, got, want)
		}
	}
	want := map[string]int64{"net": 20, spanHandler: 20, spanForward: 20, "service.peer": 40}
	for k, v := range want {
		if st.selfNs[k] != v {
			t.Errorf("self time of %s = %d, want %d (all: %v)", k, st.selfNs[k], v, st.selfNs)
		}
	}
	if len(st.netSelf) != 1 || st.netSelf[0] != 0.02 {
		t.Errorf("net self = %v µs, want [0.02]", st.netSelf)
	}
}

var (
	hotOnce   sync.Once
	hotInputs *inputs
	hotErr    error
)

func readHotInputs(t *testing.T) *inputs {
	t.Helper()
	hotOnce.Do(func() { hotInputs, hotErr = buildInputs(wReadHot, 1) })
	if hotErr != nil {
		t.Fatal(hotErr)
	}
	return hotInputs
}

func TestRequestSequenceHashFollowsTheSeed(t *testing.T) {
	for _, w := range []string{wReadHot, wCluster} {
		a, err := buildInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildInputs(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 1 gave hashes %016x and %016x", w, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 1 and 2 gave the same hash %016x", w, a.hash)
		}
	}
}

// The oracle accepts the served answer and rejects the same answer moved by
// one unit in the last place.
func TestOracleRejectsOneULP(t *testing.T) {
	in := readHotInputs(t)
	srv, err := inprocServer(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	o := in.clients[0][0]
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", o.path, nil))
	body := rec.Body.Bytes()
	if _, ok := checkEstimate(body, o.want[0]); !ok {
		t.Fatalf("served answer rejected: %s (want %v)", body, o.want[0])
	}
	f, _, _, ok := nextEstimate(body)
	if !ok {
		t.Fatalf("no fetches in %s", body)
	}
	old := []byte(`"fetches":` + strconv.FormatFloat(f, 'g', -1, 64))
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		moved := []byte(`"fetches":` + strconv.FormatFloat(math.Nextafter(f, dir), 'g', -1, 64))
		if bytes.Equal(old, moved) || !bytes.Contains(body, old) {
			t.Fatalf("cannot perturb %s in %s", old, body)
		}
		if _, ok := checkEstimate(bytes.Replace(body, old, moved, 1), o.want[0]); ok {
			t.Errorf("oracle accepted %s, one ulp from %s", moved, old)
		}
	}

	// Batches are checked item by item.
	want := [][2]float64{{1.5, 1.5}, {2.5, 3.5}}
	good := []byte(`{"count":2,"failed":0,"items":[{"estimate":{"fetches":1.5,"generation":1,"cached":true}},` +
		`{"estimate":{"fetches":3.5,"generation":1,"cached":false}}]}`)
	if cached, bad := checkBatch(good, want); cached != 1 || bad != 0 {
		t.Errorf("checkBatch(good) = %d cached, %d bad; want 1, 0", cached, bad)
	}
	off := bytes.Replace(good, []byte("3.5"), []byte(strconv.FormatFloat(math.Nextafter(3.5, 4), 'g', -1, 64)), 1)
	if _, bad := checkBatch(off, want); bad != 1 {
		t.Errorf("checkBatch with one item one ulp off = %d bad, want 1", bad)
	}
}

func TestSmokeRunsAllWorkloadsQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four deployments over loopback")
	}
	t.Setenv("TMPDIR", t.TempDir())
	var out, errOut bytes.Buffer
	start := time.Now()
	code := run([]string{"-smoke"}, &out, &errOut)
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !raceEnabled && elapsed > 10*time.Second {
		t.Errorf("smoke run took %v, want under 10s", elapsed)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum struct {
		Correct bool
		Failed  int64
		Metrics map[string]json.RawMessage
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !sum.Correct || sum.Failed != 0 {
		t.Errorf("summary correct=%v failed=%d", sum.Correct, sum.Failed)
	}
	for _, w := range workloadNames {
		if _, ok := sum.Metrics[w+"/setup_s"]; !ok {
			t.Errorf("summary lacks %s/setup_s", w)
		}
	}
}

func TestSmokeTracedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a three-node deployment over loopback")
	}
	t.Setenv("TMPDIR", t.TempDir())
	spans := t.TempDir() + "/spans.json"
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-workload", wCluster, "-spans", spans}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum struct{ Metrics map[string]json.RawMessage }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Metrics) != len(perLayer) {
		t.Errorf("traced summary has %d metrics, want the %d per-layer ones", len(sum.Metrics), len(perLayer))
	}
	if !strings.Contains(out.String(), wCluster+" top1 ") || !strings.Contains(out.String(), wCluster+" attribution ") {
		t.Errorf("traced output lacks the top costs or the attribution check:\n%s", out.String())
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// BENCHMARK.json must declare exactly the metrics this program reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program {%s %s %s}", kind, i, got[i], d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
