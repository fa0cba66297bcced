package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/stats"
)

// fitStats runs the real LRU-Fit pipeline over a small synthetic index, so
// service responses are compared against genuine paper-shaped statistics.
func fitStats(t testing.TB, table, column string, seed int64) *stats.IndexStats {
	t.Helper()
	cfg := datagen.Config{Name: table, Column: column, N: 20_000, I: 500, R: 40, K: 0.2, Seed: seed}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := core.Meta{Table: table, Column: column, T: ds.T, N: cfg.N, I: cfg.I}
	st, err := core.LRUFit(ds.Trace(), meta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newTestServer builds a service over an in-memory store seeded with one
// fitted index, returning both so tests can compare against direct calls.
func newTestServer(t testing.TB) (*Server, *catalog.Store, *stats.IndexStats) {
	t.Helper()
	store := catalog.NewStore()
	st := fitStats(t, "orders", "key", 1)
	if _, err := store.Put(st); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return srv, store, st
}

func getJSON(t testing.TB, ts *httptest.Server, path string, status int, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		t.Fatalf("GET %s = %d, want %d (body %s)", path, resp.StatusCode, status, body.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func TestEstimateMatchesDirectBitForBit(t *testing.T) {
	srv, _, st := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		b        int64
		sigma, s float64
	}{
		{12, 0.001, 1}, {50, 0.05, 1}, {100, 0.1, 1}, {250, 0.5, 1},
		{500, 1, 1}, {50, 0.1, 0.25}, {400, 0.37, 0.031}, {1_000_000, 0.8, 1},
	}
	for _, tc := range cases {
		want, err := core.EstimateFetches(st, tc.b, tc.sigma, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		var got EstimateResponse
		path := fmt.Sprintf("/v1/estimate?table=orders&column=key&b=%d&sigma=%g&s=%g", tc.b, tc.sigma, tc.s)
		getJSON(t, ts, path, http.StatusOK, &got)
		if got.Fetches != want {
			t.Errorf("estimate(B=%d sigma=%g s=%g) = %v over HTTP, %v direct", tc.b, tc.sigma, tc.s, got.Fetches, want)
		}
		if got.Generation != 1 {
			t.Errorf("generation = %d, want 1", got.Generation)
		}
	}

	// detail=1 exposes every intermediate Est-IO term, also bit-for-bit.
	wantDetail, err := core.EstIO(st, core.Input{B: 100, Sigma: 0.1, S: 1}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got EstimateResponse
	getJSON(t, ts, "/v1/estimate?table=orders&column=key&b=100&sigma=0.1&detail=1", http.StatusOK, &got)
	if got.Detail == nil {
		t.Fatal("detail=1 returned no detail")
	}
	if *got.Detail != wantDetail {
		t.Errorf("detail = %+v, want %+v", *got.Detail, wantDetail)
	}
}

func TestEstimateValidation(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		path    string
		status  int
		errFrag string
	}{
		{"/v1/estimate?table=orders&column=key&b=0&sigma=0.1", 400, "B must be >= 1"},
		{"/v1/estimate?table=orders&column=key&b=10&sigma=1.5", 400, "sigma must be in [0, 1]"},
		{"/v1/estimate?table=orders&column=key&b=10&sigma=0.1&s=0", 400, "S must be in (0, 1]"},
		{"/v1/estimate?table=orders&column=key&b=10&sigma=0.1&s=2", 400, "S must be in (0, 1]"},
		{"/v1/estimate?table=orders&column=key&b=ten&sigma=0.1", 400, "parameter b"},
		{"/v1/estimate?table=orders&column=key&sigma=0.1", 400, "parameter b"},
		{"/v1/estimate?b=10&sigma=0.1", 400, "table and column are required"},
		{"/v1/estimate?table=nosuch&column=key&b=10&sigma=0.1", 404, "no statistics"},
	}
	for _, tc := range cases {
		var got struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		getJSON(t, ts, tc.path, tc.status, &got)
		if !strings.Contains(got.Error, tc.errFrag) {
			t.Errorf("%s: error %q does not mention %q", tc.path, got.Error, tc.errFrag)
		}
	}
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body any, status int, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		t.Fatalf("POST %s = %d, want %d (body %s)", path, resp.StatusCode, status, b.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchEstimate(t *testing.T) {
	srv, _, st := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sarg := 0.5
	breq := BatchRequest{Requests: []EstimateRequest{
		{Table: "orders", Column: "key", B: 100, Sigma: 0.1},
		{Table: "orders", Column: "key", B: 200, Sigma: 0.25, S: &sarg},
		{Table: "orders", Column: "key", B: 0, Sigma: 0.1},   // invalid B
		{Table: "nosuch", Column: "key", B: 100, Sigma: 0.1}, // unknown index
	}}
	var bresp BatchResponse
	postJSON(t, ts, "/v1/estimate/batch", breq, http.StatusOK, &bresp)
	if bresp.Count != 4 || bresp.Failed != 2 || len(bresp.Items) != 4 {
		t.Fatalf("batch count=%d failed=%d items=%d", bresp.Count, bresp.Failed, len(bresp.Items))
	}
	for i, want := range []struct {
		b        int64
		sigma, s float64
	}{{100, 0.1, 1}, {200, 0.25, 0.5}} {
		item := bresp.Items[i]
		if item.Estimate == nil {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		direct, err := core.EstimateFetches(st, want.b, want.sigma, want.s)
		if err != nil {
			t.Fatal(err)
		}
		if item.Estimate.Fetches != direct {
			t.Errorf("batch item %d = %v, want %v", i, item.Estimate.Fetches, direct)
		}
	}
	if bresp.Items[2].Status != 400 || !strings.Contains(bresp.Items[2].Error, "B must be >= 1") {
		t.Errorf("item 2 = %+v, want 400 bad-buffer", bresp.Items[2])
	}
	if bresp.Items[3].Status != 404 {
		t.Errorf("item 3 status = %d, want 404", bresp.Items[3].Status)
	}

	// Empty batches are rejected outright; oversized batches answer 413 with
	// the typed sentinel's message so forwarders shed instead of buffering.
	postJSON(t, ts, "/v1/estimate/batch", BatchRequest{}, http.StatusBadRequest, nil)
	over := BatchRequest{Requests: make([]EstimateRequest, DefaultMaxBatch+1)}
	for i := range over.Requests {
		over.Requests[i] = EstimateRequest{Table: "orders", Column: "key", B: 10, Sigma: 0.1}
	}
	postJSON(t, ts, "/v1/estimate/batch", over, http.StatusRequestEntityTooLarge, nil)
}

func TestInstallListDelete(t *testing.T) {
	srv, store, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Install a second index over HTTP.
	st2 := fitStats(t, "lineitem", "partkey", 7)
	raw, err := json.Marshal(st2)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/indexes/lineitem/partkey", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	if store.Len() != 2 {
		t.Fatalf("store len = %d after install", store.Len())
	}

	// Path/body identity mismatch is a 400.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/indexes/other/column", bytes.NewReader(raw))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched PUT status = %d, want 400", resp.StatusCode)
	}

	// Listing reflects both entries.
	var listing struct {
		Generation uint64         `json:"generation"`
		Count      int            `json:"count"`
		Indexes    []indexSummary `json:"indexes"`
	}
	getJSON(t, ts, "/v1/indexes", http.StatusOK, &listing)
	if listing.Count != 2 || len(listing.Indexes) != 2 {
		t.Fatalf("listing = %+v", listing)
	}
	if listing.Indexes[0].Table != "lineitem" || listing.Indexes[1].Table != "orders" {
		t.Fatalf("listing order = %s, %s", listing.Indexes[0].Table, listing.Indexes[1].Table)
	}

	// Delete, then estimates against it 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/indexes/lineitem/partkey", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	getJSON(t, ts, "/v1/estimate?table=lineitem&column=partkey&b=10&sigma=0.1", http.StatusNotFound, nil)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/indexes/lineitem/partkey", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status = %d, want 404", resp.StatusCode)
	}
}

func TestMemoCacheServesRepeatsAndInvalidatesOnPut(t *testing.T) {
	srv, store, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const path = "/v1/estimate?table=orders&column=key&b=100&sigma=0.1"
	var first, second EstimateResponse
	getJSON(t, ts, path, http.StatusOK, &first)
	getJSON(t, ts, path, http.StatusOK, &second)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	if first.Fetches != second.Fetches {
		t.Fatalf("cached estimate differs: %v != %v", first.Fetches, second.Fetches)
	}

	// Installing fresh statistics bumps the generation, so the same request
	// misses the memo and is recomputed against the new entry.
	if _, err := store.Put(fitStats(t, "orders", "key", 99)); err != nil {
		t.Fatal(err)
	}
	var third EstimateResponse
	getJSON(t, ts, path, http.StatusOK, &third)
	if third.Cached {
		t.Fatal("estimate served from memo across a statistics install")
	}
	if third.Generation != 2 {
		t.Fatalf("generation = %d, want 2", third.Generation)
	}

	var met struct {
		Cache struct {
			Hits     uint64  `json:"hits"`
			Misses   uint64  `json:"misses"`
			HitRatio float64 `json:"hitRatio"`
		} `json:"cache"`
	}
	getJSON(t, ts, "/metrics", http.StatusOK, &met)
	if met.Cache.Hits != 1 || met.Cache.Misses != 2 {
		t.Fatalf("cache counters = %+v", met.Cache)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var hz struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Indexes    int    `json:"indexes"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	if hz.Status != "ok" || hz.Generation != 1 || hz.Indexes != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	getJSON(t, ts, "/v1/estimate?table=orders&column=key&b=100&sigma=0.1", http.StatusOK, nil)
	getJSON(t, ts, "/v1/estimate?table=orders&column=key&b=0&sigma=0.1", http.StatusBadRequest, nil)

	var met struct {
		Routes map[string]routeDoc `json:"routes"`
	}
	getJSON(t, ts, "/metrics", http.StatusOK, &met)
	rs, ok := met.Routes[routeEstimate]
	if !ok {
		t.Fatalf("metrics missing route %q: %v", routeEstimate, met.Routes)
	}
	if rs.Requests != 2 || rs.Errors != 1 {
		t.Fatalf("estimate route counters = %+v", rs)
	}
}

func TestPanicRecovery(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.instrument(routeHealthz, func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status after panic = %d", rec.Code)
	}
	var met struct {
		Panics uint64 `json:"panics"`
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &met); err != nil || met.Panics != 1 {
		t.Fatalf("JSON panics = %d (%v), want 1", met.Panics, err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	if !strings.Contains(rec.Body.String(), "\nepfis_panics_total 1\n") {
		t.Fatalf("exposition lacks epfis_panics_total 1:\n%s", rec.Body)
	}
}

// TestConcurrentEstimatesAndInstalls is the service-level race test: many
// clients estimating (single and batch) while a writer keeps installing
// fresh statistics. Run with -race.
func TestConcurrentEstimatesAndInstalls(t *testing.T) {
	srv, store, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Pre-fit the replacement entries outside the hot loop.
	replacements := []*stats.IndexStats{
		fitStats(t, "orders", "key", 2),
		fitStats(t, "orders", "key", 3),
	}

	const clients = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				i++
				if c%2 == 0 {
					path := fmt.Sprintf("/v1/estimate?table=orders&column=key&b=%d&sigma=0.1", 10+i%200)
					resp, err := ts.Client().Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s = %d", path, resp.StatusCode)
						return
					}
				} else {
					breq := BatchRequest{Requests: []EstimateRequest{
						{Table: "orders", Column: "key", B: int64(10 + i%100), Sigma: 0.2},
						{Table: "orders", Column: "key", B: int64(10 + i%100), Sigma: 0.4},
					}}
					raw, _ := json.Marshal(breq)
					resp, err := ts.Client().Post(ts.URL+"/v1/estimate/batch", "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("batch = %d", resp.StatusCode)
						return
					}
				}
			}
		}(c)
	}

	for i := 0; i < 40; i++ {
		if _, err := store.Put(replacements[i%len(replacements)]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

func TestGracefulShutdown(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
}
