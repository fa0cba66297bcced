package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
)

// Serving-path allocation budgets, gated in CI by `make bench-serve`: the
// whole handler stack (mux routing, admission control, metrics, parse,
// estimate, encode) measured per request, excluding only the kernel socket
// I/O that testing cannot meter deterministically.
const (
	singleAllocBudget  = 8  // GET /v1/estimate, memo warm
	batch64AllocBudget = 64 // POST /v1/estimate/batch, 64 items, memo warm
)

// allocWriter is a reusable ResponseWriter: the header map and body buffer
// are allocated once and reused, so the measurement sees only the server's
// own garbage. Like net/http's connection writer it accepts read deadlines,
// so the batch route's body deadline is measured as served.
type allocWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *allocWriter) SetReadDeadline(time.Time) error { return nil }

func newAllocWriter() *allocWriter { return &allocWriter{h: make(http.Header, 4)} }

func (w *allocWriter) Header() http.Header { return w.h }

func (w *allocWriter) WriteHeader(code int) { w.status = code }

func (w *allocWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *allocWriter) reset() {
	w.status = 0
	w.body = w.body[:0]
	for k := range w.h {
		delete(w.h, k)
	}
}

// newServingPathServer builds the configuration the serving benchmarks and
// alloc gates use: the default Config, as served — request timeout and
// admission control on. The estimate routes run inline, so what is measured
// here is the path a socket request takes minus the kernel I/O.
func newServingPathServer(t testing.TB) (*Server, *catalog.Store) {
	t.Helper()
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return srv, store
}

// rewindBody is a reusable request body.
type rewindBody struct{ r *bytes.Reader }

func (b *rewindBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *rewindBody) Close() error               { return nil }
func (b *rewindBody) rewind()                    { b.r.Seek(0, io.SeekStart) }

func batch64Body(t testing.TB) []byte {
	t.Helper()
	reqs := make([]EstimateRequest, 64)
	for i := range reqs {
		reqs[i] = EstimateRequest{Table: "orders", Column: "key", B: int64(12 + 77*i), Sigma: float64(1+i) / 33}
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAllocBudgetSingle pins the steady-state allocation count of one
// memoized GET /v1/estimate through the full handler stack.
func TestAllocBudgetSingle(t *testing.T) {
	srv, _ := newServingPathServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/estimate?table=orders&column=key&b=64&sigma=0.05", nil)
	w := newAllocWriter()

	serve := func() {
		w.reset()
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve() // warm memo, pools, and lazily allocated header values
	if n := testing.AllocsPerRun(200, serve); n > singleAllocBudget {
		t.Errorf("single estimate allocates %.1f/op, budget %d", n, singleAllocBudget)
	}
}

// TestAllocBudgetBatch64 pins the warm batch path: 64 items through one POST.
func TestAllocBudgetBatch64(t *testing.T) {
	srv, _ := newServingPathServer(t)
	body := &rewindBody{r: bytes.NewReader(batch64Body(t))}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", body)
	w := newAllocWriter()

	serve := func() {
		w.reset()
		body.rewind()
		req.Body = body
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve()
	if n := testing.AllocsPerRun(100, serve); n > batch64AllocBudget {
		t.Errorf("batch64 allocates %.1f/op, budget %d", n, batch64AllocBudget)
	}
}

// TestAllocBudgetBatch64Cold pins the batch path on shapes it has never
// served: every run posts 64 plans no earlier run carried, as a query
// optimizer's plan enumeration does. TestAllocBudgetBatch64 repeats one body,
// so anything a batch item pays only on its first sight is invisible there.
func TestAllocBudgetBatch64Cold(t *testing.T) {
	const runs = 100
	srv, _ := newServingPathServer(t)
	// Built up front: the warm-up call, AllocsPerRun's own warm-up, and runs.
	bodies := make([][]byte, runs+2)
	for k := range bodies {
		reqs := make([]EstimateRequest, 64)
		for i := range reqs {
			reqs[i] = EstimateRequest{Table: "orders", Column: "key", B: int64(12 + 64*k + i), Sigma: float64(1+i) / 65}
		}
		body, err := json.Marshal(BatchRequest{Requests: reqs})
		if err != nil {
			t.Fatal(err)
		}
		bodies[k] = body
	}
	body := &rewindBody{r: bytes.NewReader(nil)}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", body)
	w := newAllocWriter()

	next := 0
	serve := func() {
		w.reset()
		body.r.Reset(bodies[next])
		next++
		req.Body = body
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve()
	if n := testing.AllocsPerRun(runs, serve); n > batch64AllocBudget {
		t.Errorf("cold batch64 allocates %.1f/op, budget %d", n, batch64AllocBudget)
	}
	if next != len(bodies) {
		t.Fatalf("served %d bodies, built %d", next, len(bodies))
	}
}

// TestAllocBudgetSingleTraced pins the single-estimate path with every
// tracing feature exercised at once: an inbound traceparent to parse and
// re-parent, a slow-trace threshold of -1 so every request is flagged slow
// and copied into the ring, and the response header echo. This is the
// worst-case observability overhead, and it must fit the same budget.
func TestAllocBudgetSingleTraced(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/estimate?table=orders&column=key&b=64&sigma=0.05", nil)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	w := newAllocWriter()

	serve := func() {
		w.reset()
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve()
	if got := w.h.Get("Traceparent"); len(got) != 55 || got[:36] != "00-4bf92f3577b34da6a3ce929d0e0e4736-" {
		t.Fatalf("response traceparent = %q, want same trace id re-parented", got)
	}
	if n := testing.AllocsPerRun(200, serve); n > singleAllocBudget {
		t.Errorf("traced single estimate allocates %.1f/op, budget %d", n, singleAllocBudget)
	}
}

// TestAllocBudgetBatch64Traced is the batch counterpart: slow-flagged and
// ring-recorded on every request, within the same 64-alloc budget.
func TestAllocBudgetBatch64Traced(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	body := &rewindBody{r: bytes.NewReader(batch64Body(t))}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", body)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	w := newAllocWriter()

	serve := func() {
		w.reset()
		body.rewind()
		req.Body = body
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve()
	if n := testing.AllocsPerRun(100, serve); n > batch64AllocBudget {
		t.Errorf("traced batch64 allocates %.1f/op, budget %d", n, batch64AllocBudget)
	}
}

// TestAllocBudgetClusterEstimate pins the cluster-mode single estimate.
// Every node answers from its own replica, so an estimate at a node that
// does not own the key may allocate no more than one at an owner, and the
// owner no more than the same estimate on a single node: cluster mode adds
// no per-request allocation to the estimate route.
func TestAllocBudgetClusterEstimate(t *testing.T) {
	if raceEnabled {
		// The comparisons have no slack, and pool drops move each count by one.
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	self := startCluster(t, 3, 1)[0] // R = 1: one owner per key
	single := catalog.NewStore()
	var owned, notOwned string
	for i := 0; owned == "" || notOwned == ""; i++ {
		col := fmt.Sprintf("c%02d", i)
		st := fitStats(t, "orders", col, int64(i)+1)
		for _, store := range []*catalog.Store{self.store, single} {
			if _, err := store.Put(st); err != nil {
				t.Fatal(err)
			}
		}
		switch {
		case self.node.Owns("orders." + col):
			owned = col
		case notOwned == "":
			notOwned = col
		}
	}
	singleSrv, err := New(Config{Store: single})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(srv *Server, col, node string) float64 {
		req := httptest.NewRequest(http.MethodGet, "/v1/estimate?table=orders&column="+col+"&b=120&sigma=0.5", nil)
		w := newAllocWriter()
		serve := func() {
			w.reset()
			srv.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("estimate of orders.%s: status %d: %s", col, w.status, w.body)
			}
		}
		serve()
		if got := w.h.Get(cluster.HeaderNode); got != node {
			t.Fatalf("estimate of orders.%s answered by %q, want %q", col, got, node)
		}
		return testing.AllocsPerRun(200, serve)
	}
	base := allocs(singleSrv, owned, "")
	own := allocs(self.srv, owned, self.id)
	nonOwner := allocs(self.srv, notOwned, self.id)
	t.Logf("estimate allocs/op: single node %.0f, owner %.0f, non-owner %.0f", base, own, nonOwner)
	if nonOwner > own {
		t.Errorf("estimate at a non-owner allocates %.1f/op, at an owner %.1f", nonOwner, own)
	}
	if own > base {
		t.Errorf("cluster estimate at an owner allocates %.1f/op, single node %.1f", own, base)
	}
}
