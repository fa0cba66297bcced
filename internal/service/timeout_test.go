package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/faultfs"
	"epfis/internal/faultnet"
)

// Timeout drills: a short RequestTimeout, a fault that would hold the request
// far past it, and the requirement that the client gets the 503 timeout body
// within about one timeout — whether the route runs inline under its own
// deadlines or under the watchdog.
const (
	drillTimeout = 100 * time.Millisecond
	// drillSlack absorbs scheduling noise (the race detector included). It
	// stays below 2x the timeout, so a bound that multiplied per attempt
	// would still fail the drill.
	drillSlack = 150 * time.Millisecond
)

// checkTimedOut asserts the watchdog's 503 answer and the elapsed bound.
func checkTimedOut(t *testing.T, resp *http.Response, elapsed time.Duration) {
	t.Helper()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != timeoutBody {
		t.Fatalf("got %d %q, want 503 %s", resp.StatusCode, body, timeoutBody)
	}
	if elapsed > drillTimeout+drillSlack {
		t.Fatalf("timed out after %v, want within about %v", elapsed, drillTimeout)
	}
}

// TestBatchBodyStallTimesOut sends a batch whose body stops mid-stream over a
// raw TCP connection. The inline batch route has no watchdog; its body read
// deadline must answer the 503 and let the server drop the connection.
func TestBatchBodyStallTimesOut(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, RequestTimeout: drillTimeout})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	head := "POST /v1/estimate/batch HTTP/1.1\r\nHost: epfis\r\n" +
		"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n"
	if _, err := io.WriteString(conn, head+`{"requests":[{"table":"orders",`); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("no response to a stalled batch body: %v", err)
	}
	checkTimedOut(t, resp, time.Since(start))
	// The unread body must never be parsed as a next request: the server
	// closes the connection instead.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection after a timed-out body read: %v, want EOF", err)
	}
}

// TestPutSlowWALSyncTimesOut slows the WAL fsync under a PUT. The mutation
// routes block on disk and keep the watchdog: the client gets the 503 on
// time, and the commit still lands afterwards.
func TestPutSlowWALSyncTimesOut(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS(), 3)
	store, err := catalog.OpenWALFS(filepath.Join(t.TempDir(), "catalog.json"), catalog.WALOptions{}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := New(Config{Store: store, RequestTimeout: drillTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	gen := store.Generation()
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Mode: faultfs.ModeSlow, Delay: 800 * time.Millisecond, Count: -1})
	body, err := json.Marshal(fitStats(t, "orders", "key", 1))
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/indexes/orders/key", bytes.NewReader(body))
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	checkTimedOut(t, resp, time.Since(start))
	// The handler outlives its 503; wait for the slowed commit before the
	// store closes underneath it.
	waitFor(t, 5*time.Second, func() bool { return store.Generation() > gen }, "slowed PUT to commit")
}

// TestClusterEstimateSlowOwnersTimesOut slows every owner of a key as seen
// from the one node that does not own it, and posts that node an ingest
// batch for the key: the one request a node forwards to an owner (estimates
// are answered locally). The forward runs under the watchdog, whose one
// deadline spans the owner loop, so the 503 arrives within about one
// timeout, not one timeout per owner.
func TestClusterEstimateSlowOwnersTimesOut(t *testing.T) {
	nodes := startFaultCluster(t, 4, 3, func(c *Config) { c.RequestTimeout = drillTimeout })
	st := fitStats(t, "orders", "key", 1)
	var proxy *fnode
	for _, n := range nodes {
		if _, err := n.store.Put(st); err != nil {
			t.Fatal(err)
		}
		if !n.node.Owns(st.Key()) {
			proxy = n
		}
	}
	if proxy == nil {
		t.Fatal("every node owns orders.key; want one non-owner")
	}
	proxy.inj.Add(faultnet.Rule{
		Op: faultnet.OpRequest, Route: "/v1/ingest",
		Count: -1, Mode: faultnet.ModeSlow, Delay: 2 * time.Second,
	})

	start := time.Now()
	resp, err := proxy.ts.Client().Post(proxy.url+"/v1/ingest", "application/json",
		bytes.NewReader([]byte(`{"table":"orders","column":"key","pages":[1,2,3]}`)))
	if err != nil {
		t.Fatal(err)
	}
	checkTimedOut(t, resp, time.Since(start))
}

// TestResponsesCarryContentLength reads both estimate routes over a real
// listener: neither response may be chunked, and each declares its length.
func TestResponsesCarryContentLength(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	check := func(name string, resp *http.Response, minLen int) {
		t.Helper()
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", name, resp.StatusCode, err)
		}
		if len(body) < minLen {
			t.Fatalf("%s: body is %d bytes, want at least %d", name, len(body), minLen)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: ContentLength %d, TransferEncoding %v for a %d-byte body",
				name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/estimate?table=orders&column=key&b=64&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	check("single", resp, 1)

	reqs := make([]EstimateRequest, 64)
	for i := range reqs {
		reqs[i] = EstimateRequest{Table: "orders", Column: "key", B: int64(12 + 77*i), Sigma: float64(1+i) / 65}
	}
	raw, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/estimate/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Past net/http's 2 KB response buffer, where it would fall back to
	// chunked framing on its own.
	check("batch64", resp, chunkingThreshold+1)
}

// TestIdleKeepAliveConnectionClosed leaves a keep-alive connection idle after
// one request: Serve must close it once the idle timeout passes.
func TestIdleKeepAliveConnectionClosed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	srv.idle = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: epfis\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Close {
		t.Fatal("server closed the connection after one request; want keep-alive")
	}

	idleFrom := time.Now()
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read: %v, want EOF from the server closing it", err)
	}
	if idle := time.Since(idleFrom); idle < srv.idle/2 {
		t.Fatalf("connection closed after %v idle, before the %v idle timeout", idle, srv.idle)
	}
}
