package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/lrusim"
	"epfis/internal/storage"
)

// ingestDataset generates a synthetic index whose trace the tests stream.
func ingestDataset(t testing.TB, table, column string, seed int64) (*datagen.Dataset, core.Meta) {
	t.Helper()
	cfg := datagen.Config{Name: table, Column: column, N: 20_000, I: 500, R: 40, K: 0.2, Seed: seed}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, core.Meta{Table: table, Column: column, T: ds.T, N: cfg.N, I: cfg.I}
}

// ingestBatchSeq issues process-unique batch IDs for postIngest, so separate
// calls never collide on the server's dedup window.
var ingestBatchSeq atomic.Int64

// postIngest streams one trace to POST /v1/ingest in randomly sized batches.
func postIngest(t testing.TB, ts *httptest.Server, meta core.Meta, trace lrusim.Trace, withMeta bool, rng *rand.Rand) {
	t.Helper()
	for len(trace) > 0 {
		n := 1 + rng.Intn(4096)
		if n > len(trace) {
			n = len(trace)
		}
		req := IngestRequest{Table: meta.Table, Column: meta.Column, Pages: trace[:n],
			BatchID: fmt.Sprintf("%s.%s-%d", meta.Table, meta.Column, ingestBatchSeq.Add(1))}
		if withMeta {
			req.T, req.N, req.I = meta.T, meta.N, meta.I
		}
		// An at-least-once producer: 429/503 are retried with the same batch
		// ID (the server dedups redelivery), anything else must be a 202.
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			status := resp.StatusCode
			resp.Body.Close()
			if status == http.StatusAccepted {
				break
			}
			if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
				t.Fatalf("POST /v1/ingest = %d, want 202", status)
			}
			if time.Now().After(deadline) {
				t.Fatalf("POST /v1/ingest still %d after retries", status)
			}
			time.Sleep(5 * time.Millisecond)
		}
		trace = trace[n:]
	}
}

func TestIngestRejectsBadBatches(t *testing.T) {
	srv, _, _ := newTestServer(t)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name   string
		req    IngestRequest
		status int
	}{
		{"no index", IngestRequest{Pages: []storage.PageID{1}}, http.StatusBadRequest},
		{"no pages", IngestRequest{Table: "orders", Column: "key"}, http.StatusBadRequest},
		{"unknown index without meta", IngestRequest{Table: "nope", Column: "nope", Pages: []storage.PageID{1}}, http.StatusBadRequest},
		{"bad meta", IngestRequest{Table: "a", Column: "b", Pages: []storage.PageID{1}, T: 10, N: 5, I: 7}, http.StatusBadRequest},
	} {
		postJSON(t, ts, "/v1/ingest", tc.req, tc.status, nil)
		_ = tc.name
	}
}

func TestIngestDisabled(t *testing.T) {
	srv, _, _ := newTestServer(t)
	defer srv.Close()
	disabled, err := New(Config{Store: catalog.NewStore(), IngestQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(disabled)
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled ingest route = %d, want 404", resp.StatusCode)
	}
}

func TestIngestBackpressure(t *testing.T) {
	store := catalog.NewStore()
	srv, err := New(Config{Store: store, IngestQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stop the worker first: with nothing draining the queue, the second
	// batch must hit a full queue deterministically.
	srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := IngestRequest{Table: "t", Column: "c", Pages: []storage.PageID{1, 2, 3}, T: 3, N: 3, I: 3}
	postJSON(t, ts, "/v1/ingest", req, http.StatusAccepted, nil)

	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestIngestRepublishBitExactWithOfflineLRUFit(t *testing.T) {
	// Stream a full scan of an index the catalog does not know (metadata in
	// the payload). The worker must republish an entry bit-exact with
	// running offline LRU-Fit over the very same trace.
	srv, store, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ds, meta := ingestDataset(t, "lineitem", "partkey", 7)
	trace := ds.Trace()
	postIngest(t, ts, meta, trace, true, rand.New(rand.NewSource(42)))
	srv.Close() // drains the worker: every queued batch is processed

	got, err := store.Snapshot().Get("lineitem", "partkey")
	if err != nil {
		t.Fatalf("republished entry missing: %v", err)
	}
	want, err := core.LRUFit(trace, meta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.T != want.T || got.N != want.N || got.I != want.I ||
		got.BMin != want.BMin || got.BMax != want.BMax ||
		got.FMin != want.FMin || got.C != want.C ||
		got.GridPoints != want.GridPoints {
		t.Fatalf("republished entry diverges from offline LRU-Fit:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Curve.Knots) != len(want.Curve.Knots) {
		t.Fatalf("curve has %d knots, offline fit %d", len(got.Curve.Knots), len(want.Curve.Knots))
	}
	for i, k := range want.Curve.Knots {
		if got.Curve.Knots[i] != k {
			t.Fatalf("knot %d = %+v, offline fit %+v (must be bit-exact)", i, got.Curve.Knots[i], k)
		}
	}
}

func TestIngestNoRepublishBelowDrift(t *testing.T) {
	// Stream the exact trace the published entry was fitted from: drift is
	// zero, so no new generation may appear.
	srv, store, st := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg := datagen.Config{Name: st.Table, Column: st.Column, N: st.N, I: st.I, R: 40, K: 0.2, Seed: 1}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := store.Generation()
	meta := core.Meta{Table: st.Table, Column: st.Column, T: st.T, N: st.N, I: st.I}
	// Metadata comes from the catalog entry this time (withMeta=false).
	postIngest(t, ts, meta, ds.Trace(), false, rand.New(rand.NewSource(43)))
	srv.Close()

	if gen := store.Generation(); gen != before {
		t.Fatalf("generation moved %d -> %d despite zero drift", before, gen)
	}
}

func TestIngestRepublishBumpsClusterEpoch(t *testing.T) {
	store := catalog.NewStore()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.NewNode(cluster.Config{
		SelfID:       "n1",
		SelfURL:      "http://" + ln.Addr().String(),
		Replicas:     1,
		Heartbeat:    time.Hour, // no background gossip during the test
		SuspectAfter: time.Hour,
		DeadAfter:    2 * time.Hour,
		Store:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Cluster: node})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	ds, meta := ingestDataset(t, "region", "nation", 11)
	before := node.Epoch()
	postIngest(t, ts, meta, ds.Trace(), true, rand.New(rand.NewSource(44)))
	srv.Close()

	if node.Epoch() <= before {
		t.Fatalf("epoch still %d after republish; anti-entropy will never stream it", node.Epoch())
	}
	if _, err := store.Snapshot().Get("region", "nation"); err != nil {
		t.Fatalf("republished entry missing: %v", err)
	}
}

// TestIngestRepublishStampNamesStoredWrite races the ingest worker's
// republish of a key against a peer's pushes of the same key on a one-node
// cluster. After every round the key's stamp must name the write the store
// holds: this node's stamp over the refit, or the sender's over its entry.
// A push merged between the refit's store write and its stamp would leave
// the store serving one write under the other's stamp, which neither
// anti-entropy nor a read fence repairs.
func TestIngestRepublishStampNamesStoredWrite(t *testing.T) {
	const rounds = 1200
	cn := startCluster(t, 1, 1)[0]
	g := cn.srv.ingest

	// The stream is clustered (K 0.01), the replicated entry scattered, so
	// every evaluation drifts past the threshold and refits.
	cfg := datagen.Config{Name: "orders", Column: "key", N: 20_000, I: 500, R: 40, K: 0.01, Seed: 2}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &ingestState{accum: lrusim.NewAccum(),
		meta: core.Meta{Table: "orders", Column: "key", T: ds.T, N: cfg.N, I: cfg.I}}
	st.accum.Feed(ds.Trace())
	entry := fitStats(t, "orders", "key", 1)
	body := mustMarshal(t, entry)

	const sender = "node-z"
	replicate := func() {
		st := cluster.Stamp{Epoch: cn.node.Epoch() + 1, Origin: sender}
		req := httptest.NewRequest(http.MethodPost, cluster.PathPush, bytes.NewReader(pushBody(t, "orders.key", entry, st)))
		rec := httptest.NewRecorder()
		cn.srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("push = %d: %s", rec.Code, rec.Body)
		}
	}
	holdsReplicated := func() bool {
		got, err := cn.store.Get("orders", "key")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(mustMarshal(t, got), body)
	}

	bad := 0
	for round := 0; round < rounds; round++ {
		replicate() // republish the far entry, so this round's evaluation refits
		if !holdsReplicated() || cn.node.KeyStamp("orders.key").Origin != sender {
			t.Fatalf("round %d: sequential push not taken", round)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.evaluate("orders.key", st)
		}()
		replicate()
		wg.Wait()
		if holdsReplicated() != (cn.node.KeyStamp("orders.key").Origin == sender) {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rounds left the store holding a write other than the one its stamp names", bad, rounds)
	}
	if g.republishes.Value() == 0 {
		t.Fatal("no round republished: the race never ran")
	}
}
