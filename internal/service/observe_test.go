package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"epfis/internal/catalog"
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

func TestMetricsContentNegotiation(t *testing.T) {
	// A disk-backed store behind a fault injector, so the second phase can
	// fail a reload.
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	store, err := catalog.OpenFS(filepath.Join(t.TempDir(), "catalog.json"), inj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Drive a little traffic so histograms and counters are non-empty.
	for i := 0; i < 4; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=orders&column=key&b=64&sigma=0.05")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=nosuch&column=key&b=64&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Default stays the JSON document.
	dflt, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer dflt.Body.Close()
	if ct := dflt.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics Content-Type = %q", ct)
	}
	var doc map[string]any
	if err := json.NewDecoder(dflt.Body).Decode(&doc); err != nil {
		t.Fatalf("default /metrics not JSON: %v", err)
	}
	if _, ok := doc["routes"]; !ok {
		t.Fatalf("JSON document lost its routes map: %v", doc)
	}

	// Both negotiation forms yield a valid Prometheus exposition.
	fetch := func(build func() *http.Request) string {
		t.Helper()
		resp, err := ts.Client().Do(build())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
			t.Fatalf("prom /metrics Content-Type = %q", ct)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseExposition(data); err != nil {
			t.Fatalf("invalid exposition: %v\n%s", err, data)
		}
		return string(data)
	}
	byQuery := fetch(func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prom", nil)
		return req
	})
	fetch(func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		req.Header.Set("Accept", "text/plain")
		return req
	})

	for _, want := range []string{
		`epfis_http_requests_total{route="GET /v1/estimate",status="2xx"} 4`,
		`epfis_http_requests_total{route="GET /v1/estimate",status="4xx"} 1`,
		`epfis_http_request_duration_seconds_bucket{route="GET /v1/estimate",le="+Inf"} 5`,
		`epfis_index_estimates_total{index="orders.key"} 4`,
		"epfis_estimate_buffer_pages_bucket",
		"epfis_estimate_sigma_bucket",
		"epfis_cache_hits_total",
		"epfis_catalog_generation 1",
		"epfis_degraded 0",
		"epfis_draining 0",
		"epfis_traces_total",
		"epfis_build_info{",
		"epfis_uptime_seconds",
	} {
		if !strings.Contains(byQuery, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Second phase: traffic of every kind the JSON rows fold (2xx and 404
	// above; a 400, a 429 shed and a failed reload here), then both views
	// must tell the same story route by route.
	serve := func(method, target string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, target, rec.Code, want, rec.Body)
		}
	}
	serve(http.MethodGet, "/v1/estimate?table=orders&column=key&b=0&sigma=0.05", http.StatusBadRequest)
	sem := srv.inflight[routeEstimate]
	for len(sem) < cap(sem) {
		sem <- struct{}{}
	}
	serve(http.MethodGet, "/v1/estimate?table=orders&column=key&b=64&sigma=0.05", http.StatusTooManyRequests)
	for len(sem) > 0 {
		<-sem
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpReadFile, Path: "catalog", Nth: 1, Mode: faultfs.ModeError})
	serve(http.MethodPost, "/v1/reload", http.StatusServiceUnavailable)
	checkMetricsViewsAgree(t, srv)
}

// checkMetricsViewsAgree scrapes srv's JSON /metrics and then its Prometheus
// exposition, and requires every JSON number to match the exposition:
// per route, requests is the sum of the status-class counters, errors the
// sum of the >=4xx classes, avgMicros is 1e6*_sum/_count, and maxMicros lies
// inside the highest non-empty latency bucket; the service-wide counts equal
// their epfis_* counters. The /metrics route itself is skipped: scraping it
// moves it between the two views.
func checkMetricsViewsAgree(t *testing.T, srv *Server) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc struct {
		Routes map[string]struct {
			Requests  uint64  `json:"requests"`
			Errors    uint64  `json:"errors"`
			AvgMicros float64 `json:"avgMicros"`
			MaxMicros float64 `json:"maxMicros"`
		} `json:"routes"`
		Panics     uint64 `json:"panics"`
		Estimates  uint64 `json:"estimates"`
		Resilience struct {
			Sheds          uint64 `json:"sheds"`
			ReloadFailures uint64 `json:"reloadFailures"`
		} `json:"resilience"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("JSON /metrics: %v", err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	fams, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	type promRoute struct {
		requests, errors float64
		lat              obs.HistogramSnapshot
	}
	routes := map[string]*promRoute{}
	route := func(labels []obs.Label) *promRoute {
		name := ""
		for _, l := range labels {
			if l.Name == "route" {
				name = l.Value
			}
		}
		if routes[name] == nil {
			routes[name] = &promRoute{}
		}
		return routes[name]
	}
	scalar := map[string]float64{}
	for _, f := range fams {
		for _, h := range f.Histograms {
			if f.Name == "epfis_http_request_duration_seconds" {
				route(h.Labels).lat = h.HistogramSnapshot
			}
		}
		for _, s := range f.Samples {
			switch {
			case s.Name == "epfis_http_requests_total":
				r := route(s.Labels)
				r.requests += s.Value
				if class, _ := s.LabelValue("status"); class >= "4" {
					r.errors += s.Value
				}
			case len(s.Labels) == 0:
				scalar[s.Name] = s.Value
			}
		}
	}

	if len(doc.Routes) != len(routes) {
		t.Fatalf("JSON has %d routes, exposition %d", len(doc.Routes), len(routes))
	}
	for name, row := range doc.Routes {
		p := routes[name]
		if p == nil {
			t.Fatalf("route %q has no exposition series", name)
		}
		if name == routeMetrics {
			continue
		}
		lat := p.lat
		if float64(row.Requests) != p.requests || lat.Count != row.Requests {
			t.Errorf("%s: JSON requests %d, status counters %g, _count %d", name, row.Requests, p.requests, lat.Count)
		}
		if float64(row.Errors) != p.errors {
			t.Errorf("%s: JSON errors %d, >=4xx counters %g", name, row.Errors, p.errors)
		}
		wantAvg := 0.0
		if lat.Count > 0 {
			wantAvg = 1e6 * lat.Sum / float64(lat.Count)
		}
		if math.Abs(row.AvgMicros-wantAvg) > 1e-9*math.Abs(wantAvg) {
			t.Errorf("%s: JSON avgMicros %g, 1e6*_sum/_count %g", name, row.AvgMicros, wantAvg)
		}
		// The highest non-empty bucket i spans (Bounds[i-1], Bounds[i]],
		// open-ended for the +Inf bucket.
		lo, hi := 0.0, 0.0
		for i, c := range lat.Counts {
			if c == 0 {
				continue
			}
			lo, hi = 0, math.Inf(1)
			if i > 0 {
				lo = lat.Bounds[i-1]
			}
			if i < len(lat.Bounds) {
				hi = lat.Bounds[i]
			}
		}
		maxSec := row.MaxMicros / 1e6
		if lat.Count == 0 {
			if row.MaxMicros != 0 {
				t.Errorf("%s: no requests but maxMicros %g", name, row.MaxMicros)
			}
		} else if !(maxSec > lo*(1-1e-9) && maxSec <= hi*(1+1e-9)) {
			t.Errorf("%s: maxMicros %g outside the highest non-empty bucket (%g, %g] s", name, row.MaxMicros, lo, hi)
		}
	}
	for _, c := range []struct {
		json   uint64
		series string
	}{
		{doc.Panics, "epfis_panics_total"},
		{doc.Estimates, "epfis_estimates_total"},
		{doc.Resilience.Sheds, "epfis_admission_shed_total"},
		{doc.Resilience.ReloadFailures, "epfis_reload_failures_total"},
	} {
		if v, ok := scalar[c.series]; !ok || float64(c.json) != v {
			t.Errorf("JSON %d vs %s = %g (present %v)", c.json, c.series, v, ok)
		}
	}
	if doc.Resilience.Sheds == 0 || doc.Resilience.ReloadFailures == 0 || doc.Estimates == 0 {
		t.Errorf("traffic left counters at zero: %+v, estimates %d", doc.Resilience, doc.Estimates)
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

	r3, err := ts.Client().Get(ts.URL + "/metrics?format=prom")
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

	r3, err := ts.Client().Get(ts.URL + "/metrics?format=prom")
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
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
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
