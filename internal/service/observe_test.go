package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/faultfs"
	"epfis/internal/obs"
	"epfis/internal/stats"
)

// newObsServer builds a server with every request flagged slow, so one
// request is enough to land a span breakdown in the trace ring.
func newObsServer(t testing.TB) (*Server, *catalog.Store) {
	t.Helper()
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	return srv, store
}

func TestTraceparentEchoAndPropagation(t *testing.T) {
	srv, _ := newObsServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// An inbound traceparent is re-parented: same trace id, fresh span id.
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/estimate?table=orders&column=key&b=64&sigma=0.05", nil)
	req.Header.Set("Traceparent", inbound)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	echoed := resp.Header.Get("Traceparent")
	tp, ok := obs.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q unparseable", echoed)
	}
	if got := tp.TraceString(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not propagated: %s", got)
	}
	if tp.Span.String() == "00f067aa0ba902b7" {
		t.Fatal("span id not re-parented")
	}

	// Malformed and absent headers fall back to locally generated ids.
	for _, hdr := range []string{"", "not-a-traceparent", strings.ToUpper(inbound)} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if hdr != "" {
			req.Header.Set("Traceparent", hdr)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tp, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
		if !ok {
			t.Fatalf("header %q: response traceparent %q unparseable", hdr, resp.Header.Get("Traceparent"))
		}
		if tp.TraceString() == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("header %q: malformed input must not be propagated", hdr)
		}
	}
}

func TestClientPropagatesTraceparent(t *testing.T) {
	srv, _ := newObsServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := NewClient(ClientConfig{BaseURL: ts.URL, HTTPClient: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}

	// A caller-provided traceparent travels Client -> service and shows up
	// with its parent span in the trace ring.
	tp := obs.NewTraceparent()
	ctx := obs.ContextWithTraceparent(context.Background(), tp)
	if _, err := client.Estimate(ctx, EstimateRequest{Table: "orders", Column: "key", B: 64, Sigma: 0.05}); err != nil {
		t.Fatal(err)
	}
	// Without one, the client generates a fresh identity per call.
	if _, err := client.Estimate(context.Background(), EstimateRequest{Table: "orders", Column: "key", B: 64, Sigma: 0.05}); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, rec := range srv.obs.ring.Snapshot() {
		if rec.TP.Trace == tp.Trace {
			found = true
			if !rec.HasParent || rec.Parent != tp.Span {
				t.Fatalf("trace %s recorded without client parent span: %+v", tp.TraceString(), rec)
			}
			if rec.TP.Span == tp.Span {
				t.Fatal("server reused the client span id")
			}
		}
	}
	if !found {
		t.Fatalf("client trace %s not found in ring", tp.TraceString())
	}
}

func TestDebugTracesSpanBreakdown(t *testing.T) {
	srv, _ := newObsServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A memo-cold estimate records all four stages.
	resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=orders&column=key&b=512&sigma=0.3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var out struct {
		Ring   int    `json:"ring"`
		Total  uint64 `json:"total"`
		Slow   uint64 `json:"slow"`
		Traces []struct {
			Trace          string  `json:"trace"`
			Route          string  `json:"route"`
			Status         int     `json:"status"`
			DurationMicros float64 `json:"durationMicros"`
			Slow           bool    `json:"slow"`
			Spans          []struct {
				Name        string  `json:"name"`
				StartMicros float64 `json:"startMicros"`
				DurMicros   float64 `json:"durMicros"`
			} `json:"spans"`
		} `json:"traces"`
	}
	r2, err := ts.Client().Get(ts.URL + "/debug/traces?slow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Ring != DefaultTraceRing || out.Total == 0 || out.Slow == 0 {
		t.Fatalf("trace totals: %+v", out)
	}
	var est *struct {
		Trace          string  `json:"trace"`
		Route          string  `json:"route"`
		Status         int     `json:"status"`
		DurationMicros float64 `json:"durationMicros"`
		Slow           bool    `json:"slow"`
		Spans          []struct {
			Name        string  `json:"name"`
			StartMicros float64 `json:"startMicros"`
			DurMicros   float64 `json:"durMicros"`
		} `json:"spans"`
	}
	for i := range out.Traces {
		if out.Traces[i].Route == routeEstimate {
			est = &out.Traces[i]
			break
		}
	}
	if est == nil {
		t.Fatalf("no %s trace in ring: %+v", routeEstimate, out.Traces)
	}
	if est.Status != http.StatusOK || !est.Slow || len(est.Trace) != 32 {
		t.Fatalf("estimate trace: %+v", est)
	}
	want := []string{obs.StageParse, obs.StageCache, obs.StageEstimate, obs.StageEncode}
	if len(est.Spans) != len(want) {
		t.Fatalf("spans = %+v, want %v", est.Spans, want)
	}
	for i, name := range want {
		if est.Spans[i].Name != name {
			t.Fatalf("span %d = %q, want %q", i, est.Spans[i].Name, name)
		}
	}
}

func TestTracingDisabled(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=orders&column=key&b=64&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Traceparent"); got != "" {
		t.Fatalf("disabled tracing still echoes traceparent %q", got)
	}
	r2, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces status = %d with tracing disabled", r2.StatusCode)
	}
}

// TestMetricsContentNegotiation: GET /metrics has nothing to negotiate. A
// plain request, either Accept type and an older release's ?format=prom all
// get the same Prometheus exposition: one Content-Type, one series set, and
// equal values everywhere but the series a scrape itself moves. Traffic of
// every status class lands in its class on the exposition: 2xx, a 404, a
// 400, a shed 429 and a failed reload's 503.
func TestMetricsContentNegotiation(t *testing.T) {
	// A disk-backed store behind a fault injector, so a reload can fail.
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	store, err := catalog.OpenWALFS(filepath.Join(t.TempDir(), "catalog.json"), catalog.WALOptions{}, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, target string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, target, rec.Code, want, rec.Body)
		}
	}
	const estimate = "/v1/estimate?table=orders&column=key&b=64&sigma=0.05"
	for i := 0; i < 4; i++ {
		serve(http.MethodGet, estimate, http.StatusOK)
	}
	serve(http.MethodGet, "/v1/estimate?table=nosuch&column=key&b=64&sigma=0.05", http.StatusNotFound)
	serve(http.MethodGet, "/v1/estimate?table=orders&column=key&b=0&sigma=0.05", http.StatusBadRequest)
	sem := srv.inflight[routeEstimate]
	for len(sem) < cap(sem) {
		sem <- struct{}{}
	}
	serve(http.MethodGet, estimate, http.StatusTooManyRequests)
	for len(sem) > 0 {
		<-sem
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpReadFile, Path: "catalog", Nth: 1, Mode: faultfs.ModeError})
	serve(http.MethodPost, "/v1/reload", http.StatusServiceUnavailable)

	scrape := func(target, accept string) map[string]float64 {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != obs.ContentType {
			t.Fatalf("GET %s (Accept %q) = %d, Content-Type %q", target, accept, rec.Code, rec.Header().Get("Content-Type"))
		}
		fams, err := obs.ParseExposition(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("GET %s (Accept %q): invalid exposition: %v\n%s", target, accept, err, rec.Body)
		}
		out := map[string]float64{}
		for _, f := range fams {
			for _, s := range f.Samples {
				out[s.Name+"{"+s.CanonicalLabels()+"}"] = s.Value
			}
		}
		return out
	}
	// moves reports a series that a scrape, or time, moves on its own.
	moves := func(series string) bool {
		return strings.Contains(series, `route="GET /metrics"`) ||
			strings.HasPrefix(series, "epfis_uptime_seconds") ||
			strings.HasPrefix(series, "epfis_go_") ||
			strings.HasPrefix(series, "epfis_traces_")
	}
	plain := scrape("/metrics", "")
	for _, form := range []struct{ target, accept string }{
		{"/metrics", "application/json"},
		{"/metrics", "text/plain"},
		{"/metrics?format=prom", ""},
	} {
		got := scrape(form.target, form.accept)
		if len(got) != len(plain) {
			t.Errorf("GET %s (Accept %q): %d series, plain GET /metrics %d", form.target, form.accept, len(got), len(plain))
		}
		for series, v := range plain {
			if w, ok := got[series]; !ok || !moves(series) && w != v {
				t.Errorf("GET %s (Accept %q): %s = %v (present %v), plain GET /metrics %v", form.target, form.accept, series, w, ok, v)
			}
		}
	}

	for series, want := range map[string]float64{
		`epfis_http_requests_total{route="GET /v1/estimate",status="2xx"}`:               4,
		`epfis_http_requests_total{route="GET /v1/estimate",status="4xx"}`:               2, // the 404 and the 400
		`epfis_http_requests_total{route="GET /v1/estimate",status="429"}`:               1,
		`epfis_http_requests_total{route="GET /v1/estimate",status="5xx"}`:               0,
		`epfis_http_requests_total{route="POST /v1/reload",status="503"}`:                1,
		`epfis_http_request_duration_seconds_count{route="GET /v1/estimate"}`:            7,
		`epfis_http_request_duration_seconds_count{route="POST /v1/reload"}`:             1,
		`epfis_http_request_duration_seconds_bucket{le="+Inf",route="GET /v1/estimate"}`: 7,
		`epfis_index_estimates_total{index="orders.key"}`:                                5, // the 400 is observed too
		`epfis_estimate_buffer_pages_count{}`:                                            6,
		`epfis_estimates_total{}`:                                                        4,
		`epfis_admission_shed_total{}`:                                                   1,
		`epfis_reload_failures_total{}`:                                                  1,
		`epfis_panics_total{}`:                                                           0,
		`epfis_catalog_generation{}`:                                                     1,
		`epfis_degraded{}`:                                                               1,
		`epfis_draining{}`:                                                               0,
	} {
		if got, ok := plain[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	for _, prefix := range []string{"epfis_cache_hits_total{", "epfis_traces_total{", "epfis_build_info{", "epfis_uptime_seconds{", "epfis_estimate_sigma_bucket{"} {
		found := false
		for series := range plain {
			found = found || strings.HasPrefix(series, prefix)
		}
		if !found {
			t.Errorf("exposition has no %s...} series", prefix)
		}
	}
	// Every request lands in exactly one status class: per route, the
	// latency histogram's count equals the sum of its status counters.
	for series, count := range plain {
		route, ok := strings.CutPrefix(series, "epfis_http_request_duration_seconds_count{")
		if !ok || strings.Contains(route, `"GET /metrics"`) {
			continue
		}
		sum := 0.0
		for _, class := range statusClasses {
			sum += plain["epfis_http_requests_total{"+strings.TrimSuffix(route, "}")+`,status="`+class+`"}`]
		}
		if sum != count {
			t.Errorf("%s: _count %v, status counters sum %v", route, count, sum)
		}
	}
}

func TestShedAndDrainingStatusLabels(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, MaxInflight: 1, RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Saturate the estimate route's admission semaphore directly, then one
	// request sheds with 429.
	srv.inflight[routeEstimate] <- struct{}{}
	resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=orders&column=key&b=64&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated route status = %d, want 429", resp.StatusCode)
	}
	<-srv.inflight[routeEstimate]

	// Draining healthz answers 503.
	srv.draining.Store(true)
	r2, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", r2.StatusCode)
	}
	srv.draining.Store(false)

	r3, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	data, err := io.ReadAll(r3.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(data); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		`epfis_http_requests_total{route="GET /v1/estimate",status="429"} 1`,
		`epfis_http_requests_total{route="GET /healthz",status="503"} 1`,
		"epfis_admission_shed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	srv, _ := newObsServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var h Health
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.GoVersion == "" || h.Version == "" || h.Revision == "" {
		t.Fatalf("healthz missing build info: %+v", h)
	}
	if h.Generation != 1 || h.UptimeSeconds < 0 {
		t.Fatalf("healthz generation/uptime: %+v", h)
	}
}

func TestPutIndexRegistersEstimateCounter(t *testing.T) {
	srv, _ := newObsServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := fitStats(t, "users", "id", 7)
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/indexes/users/id", strings.NewReader(string(body)))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}

	r2, err := ts.Client().Get(ts.URL + "/v1/estimate?table=users&column=id&b=64&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()

	r3, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	data, err := io.ReadAll(r3.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `epfis_index_estimates_total{index="users.id"} 1`) {
		t.Fatalf("installed index has no estimate counter:\n%s", data)
	}
}

// TestPutOfKnownIndexKeepsCounterMap holds the per-index counter sync to
// what a write changed: a PUT of an index that already has its estimate
// counter leaves the published counter map as it was, on the single-node
// and the cluster PUT paths alike; a PUT of a new index republishes it.
func TestPutOfKnownIndexKeepsCounterMap(t *testing.T) {
	single, _, st := newTestServer(t)
	store := catalog.NewStore()
	node, err := cluster.NewNode(cluster.Config{SelfID: "node-a", SelfURL: "http://127.0.0.1:1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := New(Config{Store: store, Cluster: node, WriteQuorum: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	put := func(srv *Server, e *stats.IndexStats) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/indexes/"+e.Table+"/"+e.Column, bytes.NewReader(mustMarshal(t, e))))
		if rec.Code != http.StatusOK {
			t.Fatalf("PUT %s = %d: %s", e.Key(), rec.Code, rec.Body)
		}
	}
	for name, srv := range map[string]*Server{"single": single, "cluster": clustered} {
		put(srv, st) // known to the single node since New; new to the cluster node
		before := srv.obs.idx.Load()
		put(srv, st)
		if srv.obs.idx.Load() != before {
			t.Fatalf("%s: a PUT of a known index republished the counter map", name)
		}
		fresh := *st
		fresh.Column = "fresh"
		put(srv, &fresh)
		if after := srv.obs.idx.Load(); after == before || (*after)[obsIndexKey{table: "orders", column: "fresh"}] == nil {
			t.Fatalf("%s: a PUT of a new index did not publish its counter", name)
		}
	}
}

func TestSlowTraceThreshold(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	// A generous threshold: microsecond requests must not be flagged slow.
	srv, err := New(Config{Store: store, SlowTrace: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=orders&column=key&b=64&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	total, slow := srv.obs.ring.Totals()
	if total == 0 || slow != 0 {
		t.Fatalf("totals = %d/%d, want >0 total and 0 slow", total, slow)
	}
}

// estimateSeries scrapes srv's Prometheus exposition and returns its
// estimate-shape histograms and estimate counters as series → value.
func estimateSeries(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		switch f.Name {
		case "epfis_estimate_buffer_pages", "epfis_estimate_sigma",
			"epfis_estimates_total", "epfis_index_estimates_total":
			for _, s := range f.Samples {
				out[s.Name+s.CanonicalLabels()] = s.Value
			}
		}
	}
	return out
}

// serveBatch serves one batch in process and returns its decoded response.
func serveBatch(t *testing.T, srv *Server, reqs []EstimateRequest) BatchResponse {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchTallyMatchesSingleObservations sends the same items once as a
// batch and once as single estimates, to two fresh servers. Batch items skip
// the memo and tally their shapes for one flush per batch; the metrics they
// leave must equal per-item observation: failed items observed in the shape
// histograms, only successes in the estimate counters. The σ values are
// dyadic so both summation orders give exact sums.
func TestBatchTallyMatchesSingleObservations(t *testing.T) {
	entries := []*stats.IndexStats{fitStats(t, "orders", "key", 1), fitStats(t, "parts", "id", 2)}
	newServer := func() *Server {
		store := catalog.NewStore()
		for _, e := range entries {
			if _, err := store.Put(e); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := New(Config{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	quarter := 0.25
	items := []EstimateRequest{
		{Table: "orders", Column: "key", B: 64, Sigma: 0.5},
		{Table: "parts", Column: "id", B: 1, Sigma: 0.125, S: &quarter},
		{Table: "orders", Column: "key", B: 3000, Sigma: 0.0625},
		{Table: "parts", Column: "id", B: 1 << 25, Sigma: 1},  // +Inf pages bucket
		{Table: "nosuch", Column: "idx", B: 100, Sigma: 0.25}, // 404, still observed
		{Table: "orders", Column: "key", B: 200, Sigma: 1.5},  // 400, σ in the +Inf bucket
		{Table: "orders", Column: "key", B: 64, Sigma: 0.5},   // a memo hit as a single
		{Table: "parts", Column: "id", B: 77, Sigma: 0.75},
	}

	batchSrv, singleSrv := newServer(), newServer()
	resp := serveBatch(t, batchSrv, items)
	if resp.Failed != 2 {
		t.Fatalf("batch failed %d items, want 2: %+v", resp.Failed, resp.Items)
	}
	for _, it := range items {
		q := url.Values{}
		q.Set("table", it.Table)
		q.Set("column", it.Column)
		q.Set("b", strconv.FormatInt(it.B, 10))
		q.Set("sigma", strconv.FormatFloat(it.Sigma, 'g', -1, 64))
		if it.S != nil {
			q.Set("s", strconv.FormatFloat(*it.S, 'g', -1, 64))
		}
		rec := httptest.NewRecorder()
		singleSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/estimate?"+q.Encode(), nil))
	}

	got, want := estimateSeries(t, batchSrv), estimateSeries(t, singleSrv)
	if want["epfis_estimate_buffer_pages_count"] != float64(len(items)) ||
		want["epfis_estimate_sigma_count"] != float64(len(items)) ||
		want["epfis_estimates_total"] != float64(len(items)-2) {
		t.Fatalf("singles left unexpected metrics: %v", want)
	}
	if len(got) != len(want) {
		t.Fatalf("batch left %d series, singles %d:\n batch   %v\n singles %v", len(got), len(want), got, want)
	}
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s: batch %v, singles %v", series, got[series], v)
		}
	}
	if b, s := batchSrv.obs.estimates.Value(), singleSrv.obs.estimates.Value(); b != s {
		t.Errorf("JSON estimates counter: batch %d, singles %d", b, s)
	}

	// A second batch adds on top of the first: the pooled tally starts empty.
	serveBatch(t, batchSrv, items)
	if got := estimateSeries(t, batchSrv); got["epfis_estimate_sigma_count"] != 2*float64(len(items)) ||
		got["epfis_estimate_buffer_pages_sum"] != 2*want["epfis_estimate_buffer_pages_sum"] {
		t.Errorf("second batch: %v", got)
	}
}
