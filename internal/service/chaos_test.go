package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/faultfs"
	"epfis/internal/resilience"
)

// newChaosServer builds a service over a disk-backed store whose filesystem
// runs through a fault injector, seeded with the standard "orders.key" index.
// A checkpoint every two commits puts the checkpoint and rotation writes on
// the mutation path beside the log appends.
func newChaosServer(t *testing.T) (*Server, *catalog.Store, *faultfs.Injector, float64) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS(), 42)
	store, err := catalog.OpenWALFS(filepath.Join(t.TempDir(), "catalog.json"), catalog.WALOptions{CheckpointEvery: 2}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	orders := fitStats(t, "orders", "key", 1)
	if _, err := store.Put(orders); err != nil {
		t.Fatal(err)
	}
	want, err := core.EstimateFetches(orders, 100, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:           store,
		MaxInflight:     64,
		BreakerFailures: 2,
		BreakerCooldown: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, store, inj, want
}

// TestChaosFaultsMidTrafficNeverWrongAnswers is the acceptance chaos test:
// faults are injected on every catalog write-path operation class (create,
// write, fsync, close, rename, directory fsync) while 200 concurrent readers
// hammer /v1/estimate for an index whose statistics never change. Every
// reader response must be either a bit-exact estimate from the last good
// generation, or an honest shed/unavailable status — never a wrong number,
// never a panic. After the injector is disarmed, a retrying client reload
// must restore "ok" health.
func TestChaosFaultsMidTrafficNeverWrongAnswers(t *testing.T) {
	srv, store, inj, want := newChaosServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// 200 concurrent readers over a two-connection-idle default transport
	// would thrash TIME_WAIT; allow the pool to hold them all.
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	scratch := fitStats(t, "scratch", "col", 2)
	scratchBody, err := json.Marshal(scratch)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 200
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		served   atomic.Int64 // 200s with the exact answer
		shed     atomic.Int64 // 429/503
		failures atomic.Int64
		firstErr atomic.Pointer[string]
	)
	record := func(format string, args ...any) {
		failures.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstErr.CompareAndSwap(nil, &msg)
	}
	url := ts.URL + "/v1/estimate?table=orders&column=key&b=100&sigma=0.05"
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(url)
				if err != nil {
					record("GET estimate: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var got EstimateResponse
					err := json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil {
						record("decode estimate: %v", err)
						return
					}
					if got.Fetches != want {
						record("WRONG ANSWER: fetches = %v, want %v (generation %d)",
							got.Fetches, want, got.Generation)
						return
					}
					served.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					resp.Body.Close()
					shed.Add(1)
				default:
					resp.Body.Close()
					record("estimate returned status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Mutator: walk every write-path op class, arm a fault on the next
	// matching catalog operation, and drive PUT / DELETE / reload traffic
	// into it. Mutations may succeed, shed, or fail 503 — anything but a
	// wrong reader answer.
	mutate := func(method, path string, body []byte) {
		var rd *bytes.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			record("%s %s: %v", method, path, err)
			return
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusNotFound,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			record("%s %s returned status %d", method, path, resp.StatusCode)
		}
	}
	writeOps := []faultfs.Op{
		faultfs.OpCreate, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpClose, faultfs.OpRename, faultfs.OpSyncDir,
	}
	for round := 0; round < 3; round++ {
		for _, op := range writeOps {
			inj.Add(faultfs.Rule{Op: op, Path: "catalog", Nth: 1, Mode: faultfs.ModeError})
			mutate(http.MethodPut, "/v1/indexes/scratch/col", scratchBody)
			mutate(http.MethodDelete, "/v1/indexes/scratch/col", nil)
			mutate(http.MethodPost, "/v1/reload", nil)
			time.Sleep(5 * time.Millisecond) // let the breaker cooldown elapse
		}
	}
	close(stop)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d reader/mutator failures; first: %s", n, *firstErr.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no estimate was served during the chaos run")
	}
	if inj.Injected() == 0 {
		t.Fatal("no fault actually fired; the chaos run exercised nothing")
	}
	t.Logf("chaos: %d exact answers, %d sheds, %d faults injected",
		served.Load(), shed.Load(), inj.Injected())

	// A read fault on the catalog file degrades reload but not serving.
	inj.Reset()
	inj.Add(faultfs.Rule{Op: faultfs.OpReadFile, Path: "catalog", Nth: 1, Mode: faultfs.ModeError})
	time.Sleep(25 * time.Millisecond) // past the breaker cooldown
	mutate(http.MethodPost, "/v1/reload", nil)
	var h Health
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || !h.Degraded || h.LastReloadError == "" {
		t.Fatalf("health after failed reload = %+v, want degraded with an error", h)
	}
	if h.StaleGeneration != store.Generation() {
		t.Fatalf("staleGeneration = %d, want %d", h.StaleGeneration, store.Generation())
	}

	// Disarm the injector: a retrying client's reload must succeed (waiting
	// out the breaker via Retry-After) and health must return to "ok".
	inj.Reset()
	c, err := NewClient(ClientConfig{
		BaseURL:    ts.URL,
		HTTPClient: client,
		Retry: resilience.RetryPolicy{
			MaxAttempts: 8,
			// Honor the server's Retry-After shape but compress the waits so
			// the test finishes promptly.
			Sleep: func(ctx context.Context, d time.Duration) error {
				time.Sleep(d / 20)
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reload(context.Background()); err != nil {
		t.Fatalf("fault-free reload through retrying client: %v", err)
	}
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Degraded {
		t.Fatalf("health after recovery = %+v, want ok", h)
	}
	// And the answers are still exact.
	var got EstimateResponse
	getJSON(t, ts, "/v1/estimate?table=orders&column=key&b=100&sigma=0.05", http.StatusOK, &got)
	if got.Fetches != want {
		t.Fatalf("post-recovery estimate = %v, want %v", got.Fetches, want)
	}
}

// TestOverloadShedsDeterministically fills the estimate route's admission
// tokens by hand and proves the next request is shed with 429 + Retry-After
// instead of queueing, then that releasing a token restores service.
func TestOverloadShedsDeterministically(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sem := srv.inflight[routeEstimate]
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=orders&column=key&b=100&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated route returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	// Health stays reachable while the serving routes are saturated.
	var h Health
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("health during overload = %q, want ok", h.Status)
	}
	if sheds := promSeries(t, srv, "epfis_admission_shed_total")["epfis_admission_shed_total{}"]; sheds < 1 {
		t.Fatalf("epfis_admission_shed_total = %v, want >= 1", sheds)
	}

	<-sem // release one token; service resumes
	var got EstimateResponse
	getJSON(t, ts, "/v1/estimate?table=orders&column=key&b=100&sigma=0.05", http.StatusOK, &got)
}

// TestDeletedIndexNeverServesCachedEstimates is the regression test for the
// memo-invalidation satellite: after DELETE, the index 404s rather than
// serving a memoized estimate, and a re-installed replacement with different
// statistics is computed fresh against the new statistics.
func TestDeletedIndexNeverServesCachedEstimates(t *testing.T) {
	srv, store, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const q = "/v1/estimate?table=orders&column=key&b=100&sigma=0.05"

	// Warm the memo: second hit is served from cache.
	var first, second EstimateResponse
	getJSON(t, ts, q, http.StatusOK, &first)
	getJSON(t, ts, q, http.StatusOK, &second)
	if !second.Cached {
		t.Fatal("second identical estimate was not memoized")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/indexes/orders/key", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete returned %d", resp.StatusCode)
	}
	if n := srv.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after delete, want 0", n)
	}
	getJSON(t, ts, q, http.StatusNotFound, nil)

	// Re-install the same key with different statistics: the estimate must
	// be computed fresh from the new statistics, not recalled from the old.
	replacement := fitStats(t, "orders", "key", 99)
	body, err := json.Marshal(replacement)
	if err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/indexes/orders/key", bytes.NewReader(body))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reinstall returned %d", resp.StatusCode)
	}
	fresh, err := store.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EstimateFetches(fresh, 100, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want == first.Fetches {
		t.Fatal("test is vacuous: replacement statistics estimate identically")
	}
	var got EstimateResponse
	getJSON(t, ts, q, http.StatusOK, &got)
	if got.Cached {
		t.Fatal("first estimate after reinstall claims to be cached")
	}
	if got.Fetches != want {
		t.Fatalf("estimate after reinstall = %v, want %v (stale would be %v)",
			got.Fetches, want, first.Fetches)
	}
}

// TestEstimateHotPathAllocations pins the allocation budget of the memoized
// estimate path at zero: the memo key is built field-wise (no string
// concatenation), the result travels by out-pointer, and admission control,
// degraded-mode checks, and breaker state add nothing.
func TestEstimateHotPathAllocations(t *testing.T) {
	srv, store, _ := newTestServer(t)
	snap := store.Snapshot()
	in := estimateInput{table: "orders", column: "key", b: 100, sigma: 0.05, s: 1}
	var res estimateResult
	if err := srv.estimate(snap, &in, &res, nil); err != nil { // warm the memo
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := srv.estimate(snap, &in, &res, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized estimate allocates %.1f objects/op, budget is 0", allocs)
	}
}

// TestHealthzDrainingReturns503 proves a draining instance tells balancers
// to go away (503 + Retry-After) while still identifying itself.
func TestHealthzDrainingReturns503(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.draining.Store(true)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz carries no Retry-After")
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("status = %q, want draining", h.Status)
	}
}
