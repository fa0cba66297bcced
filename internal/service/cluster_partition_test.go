package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/faultnet"
	"epfis/internal/obs"
	"epfis/internal/resilience"
	"epfis/internal/stats"
)

// fnode is one partition-drill cluster member: a WAL-backed store, a durable
// handoff directory, and a faultnet injector sitting on every outbound HTTP
// hop (gossip, replication, forwarding, hint delivery).
type fnode struct {
	*cnode
	inj         *faultnet.Injector
	catalogPath string
	handoffDir  string
}

func (n *fnode) host() string { return strings.TrimPrefix(n.url, "http://") }

// startFaultCluster brings up n WAL-backed nodes whose every outbound request
// crosses a deterministic faultnet injector, so tests can partition the
// cluster without touching real sockets. DeadAfter is effectively infinite:
// partitions in these drills heal, and a peer that went "dead" would change
// the replication decision being tested. tweaks adjust each node's service
// Config before it starts.
func startFaultCluster(t testing.TB, n, replicas int, tweaks ...func(*Config)) []*fnode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fnode, n)
	for i := range nodes {
		id := fmt.Sprintf("node-%c", 'a'+i)
		dir := t.TempDir()
		catalogPath := filepath.Join(dir, "catalog.json")
		store, err := catalog.OpenWAL(catalogPath, catalog.WALOptions{CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		inj := faultnet.NewInjector(nil, int64(i+1))
		node, err := cluster.NewNode(cluster.Config{
			SelfID:       id,
			SelfURL:      urls[i],
			Seeds:        urls,
			Replicas:     replicas,
			Heartbeat:    50 * time.Millisecond,
			SuspectAfter: 300 * time.Millisecond,
			DeadAfter:    time.Hour,
			Store:        store,
			HTTPClient:   inj.Client(2 * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		handoffDir := filepath.Join(dir, "hints")
		cfg := Config{
			Store:            store,
			Cluster:          node,
			Transport:        inj,
			ReplicateTimeout: 500 * time.Millisecond,
			HandoffDir:       handoffDir,
		}
		for _, tweak := range tweaks {
			tweak(&cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		nodes[i] = &fnode{
			cnode:       &cnode{id: id, url: urls[i], store: store, node: node, srv: srv, ts: ts},
			inj:         inj,
			catalogPath: catalogPath,
			handoffDir:  handoffDir,
		}
	}
	for round := 0; round < 2; round++ {
		for _, cn := range nodes {
			cn.node.Tick(context.Background())
		}
	}
	for _, cn := range nodes {
		if got := cn.node.Ring().Len(); got != n {
			t.Fatalf("%s ring has %d members after convergence, want %d", cn.id, got, n)
		}
	}
	return nodes
}

// partition blocks every cross-side hop, both directions, at the senders.
func partition(a, b []*fnode) {
	for _, x := range a {
		for _, y := range b {
			x.inj.Block(y.host())
			y.inj.Block(x.host())
		}
	}
}

func healAll(nodes []*fnode) {
	for _, n := range nodes {
		n.inj.Heal()
	}
}

// converge ticks gossip and drains hinted handoff until every store reports
// the same content hash, or fails after the deadline.
func converge(t *testing.T, nodes []*fnode) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, n := range nodes {
			n.node.Tick(context.Background())
		}
		pending := 0
		for _, n := range nodes {
			pending += n.srv.DrainHandoff(context.Background())
		}
		hashes := make([]string, len(nodes))
		same := true
		for i, n := range nodes {
			h, _, err := n.store.ContentHash()
			if err != nil {
				t.Fatal(err)
			}
			hashes[i] = h
			if h != hashes[0] {
				same = false
			}
		}
		if same && pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stores never converged (pending hints %d): %v", pending, hashes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// rawMutate issues a PUT or DELETE and returns the status plus body, without
// failing on non-200 — partition drills expect honest 503s.
func rawMutate(t testing.TB, cn *cnode, method, path string, body []byte) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cn.url+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cn.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(raw)
}

func mustMarshal(t testing.TB, st *stats.IndexStats) []byte {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// crashImage copies the node's catalog files (checkpoint, WAL, fallbacks) to
// a fresh directory — a point-in-time crash image taken while the process is
// still running — and reopens it as a recovered store.
func crashImage(t testing.TB, n *fnode) *catalog.Store {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Dir(n.catalogPath)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := catalog.OpenWAL(filepath.Join(dir, filepath.Base(n.catalogPath)), catalog.WALOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatalf("reopening crash image: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// TestClusterPartitionHealConvergence is the jepsen-lite acceptance drill: a
// 3-node cluster is split into a minority {a} and a majority {b,c} while both
// sides take mutations and the majority streams an ingest scan. The minority
// must answer honest 503s (applied locally, hint journaled); the majority
// must keep acking with quorum. After the partition heals, gossip plus
// hinted handoff must converge every store to the same content hash, every
// node must serve bit-exact estimates, and a crash image of the minority node
// must rebuild the identical catalog from its WAL.
func TestClusterPartitionHealConvergence(t *testing.T) {
	nodes := startFaultCluster(t, 3, 3) // R=3: all nodes own every key, majority W=2
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Baseline entries, fully replicated before the split.
	keep := fitStats(t, "orders", "key", 1)
	doomed := fitStats(t, "orders", "doomed", 2)
	putIndex(t, a.cnode, keep)
	putIndex(t, b.cnode, doomed)
	// A PUT acks at quorum (2 of 3) and its third send may still be in
	// flight, so wait for it rather than assume it landed.
	for _, n := range nodes {
		waitFor(t, 5*time.Second, func() bool { return n.store.Len() == 2 },
			n.id+" to hold both entries before partition")
	}

	partition(nodes[:1], nodes[1:])

	// Majority side: quorum (2 of 3 owners) is still reachable, so mutations
	// succeed and hints queue for the unreachable minority.
	major := fitStats(t, "orders", "major", 3)
	if status, body := rawMutate(t, b.cnode, http.MethodPut, "/v1/indexes/orders/major", mustMarshal(t, major)); status != http.StatusOK {
		t.Fatalf("majority PUT = %d, want 200: %s", status, body)
	}
	if status, body := rawMutate(t, c.cnode, http.MethodDelete, "/v1/indexes/orders/doomed", nil); status != http.StatusOK {
		t.Fatalf("majority DELETE = %d, want 200: %s", status, body)
	}

	// Minority side: the write quorum is unreachable. The mutation applies
	// locally, a hint is journaled, and the client gets an honest 503.
	minor := fitStats(t, "orders", "minor", 4)
	status, body := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/minor", mustMarshal(t, minor))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("minority PUT = %d, want 503: %s", status, body)
	}
	if _, err := a.store.Get("orders", "minor"); err != nil {
		t.Fatalf("minority PUT not applied locally: %v", err)
	}
	if n := a.srv.handoff.pending(); n == 0 {
		t.Fatal("minority PUT queued no hints")
	}

	// Concurrent ingestion on the majority: a full scan of an index the
	// catalog does not know republishes a new entry mid-partition.
	ds, meta := ingestDataset(t, "lineitem", "orderkey", 5)
	trace := ds.Trace()
	postIngest(t, b.ts, meta, trace, true, rand.New(rand.NewSource(5)))
	waitFor(t, 5*time.Second, func() bool {
		_, err := b.store.Get("lineitem", "orderkey")
		return err == nil
	}, "majority ingest republish")

	healAll(nodes)
	converge(t, nodes)

	for _, n := range nodes {
		snap := n.store.Snapshot()
		for _, key := range []string{"orders.key", "orders.minor", "orders.major", "lineitem.orderkey"} {
			if _, ok := snap.Lookup(key); !ok {
				t.Errorf("%s: %s missing after heal", n.id, key)
			}
		}
		if _, ok := snap.Lookup("orders.doomed"); ok {
			t.Errorf("%s: deleted index resurrected after heal", n.id)
		}
	}

	// Bit-exact serving: all three nodes answer identical numbers, including
	// for the entry republished from the mid-partition ingest stream.
	fit, err := core.LRUFit(trace, meta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		path string
		st   *stats.IndexStats
		b    int64
	}{
		{"/v1/estimate?table=orders&column=minor&b=100&sigma=0.1", minor, 100},
		{"/v1/estimate?table=orders&column=major&b=250&sigma=0.2", major, 250},
		{"/v1/estimate?table=lineitem&column=orderkey&b=64&sigma=0.1", fit, 64},
	} {
		want, err := core.EstimateFetches(q.st, q.b, gatherSigma(q.path), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			var got EstimateResponse
			getJSON(t, n.ts, q.path, http.StatusOK, &got)
			if got.Fetches != want {
				t.Errorf("%s: %s = %v, want %v", n.id, q.path, got.Fetches, want)
			}
		}
	}

	// Crash-durability: a point-in-time file copy of the minority node's
	// catalog — taken as if the process died right now — must recover to the
	// exact same content hash.
	wantHash, _, err := a.store.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	re := crashImage(t, a)
	gotHash, _, err := re.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != wantHash {
		t.Fatalf("crash image recovered hash %q, live store has %q", gotHash, wantHash)
	}
}

// gatherSigma pulls the sigma query parameter back out of a test path so the
// expectation matches the request exactly.
func gatherSigma(path string) float64 {
	i := strings.Index(path, "sigma=")
	v, err := strconv.ParseFloat(path[i+len("sigma="):], 64)
	if err != nil {
		panic(err)
	}
	return v
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsymmetricPartitionHandoff covers the one-way link failure: b can be
// reached but cannot send. Writes through the healthy direction keep their
// quorum; writes from the degraded node apply locally, answer 503, and drain
// from the durable hint journal once the link heals.
func TestAsymmetricPartitionHandoff(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2) // W = majority of 2 owners = 2
	a, b := nodes[0], nodes[1]

	b.inj.Block(a.host()) // b -> a dead; a -> b still fine

	// a reaches b: full quorum, both stores apply synchronously.
	viaA := fitStats(t, "orders", "via_a", 1)
	if status, body := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/via_a", mustMarshal(t, viaA)); status != http.StatusOK {
		t.Fatalf("PUT via healthy direction = %d, want 200: %s", status, body)
	}
	if _, err := b.store.Get("orders", "via_a"); err != nil {
		t.Fatalf("entry missing on b after quorum PUT: %v", err)
	}

	// b cannot reach a: local apply, hint, honest 503.
	viaB := fitStats(t, "orders", "via_b", 2)
	status, body := rawMutate(t, b.cnode, http.MethodPut, "/v1/indexes/orders/via_b", mustMarshal(t, viaB))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("PUT via degraded direction = %d, want 503: %s", status, body)
	}
	if _, err := b.store.Get("orders", "via_b"); err != nil {
		t.Fatalf("degraded PUT not applied locally: %v", err)
	}
	if b.srv.handoff.pending() == 0 {
		t.Fatal("degraded PUT queued no hints")
	}

	b.inj.Heal()
	converge(t, nodes)
	if _, err := a.store.Get("orders", "via_b"); err != nil {
		t.Fatalf("hint never delivered to a: %v", err)
	}
}

// TestReplicatedDeleteEpochGuard is the regression for the DELETE
// resurrection race: a replicated PUT that was assigned an older epoch than a
// later DELETE arrives out of order and must be dropped, not applied.
func TestReplicatedDeleteEpochGuard(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	n := nodes[0]
	raw := mustMarshal(t, fitStats(t, "orders", "key", 1))

	send := func(method string, epoch uint64, body []byte) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, n.url+"/v1/indexes/orders/key", rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.HeaderReplicated, "peer-x")
		req.Header.Set(cluster.HeaderEpoch, strconv.FormatUint(epoch, 10))
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := n.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(out)
	}

	if status, body := send(http.MethodPut, 5, raw); status != http.StatusOK {
		t.Fatalf("replicated PUT@5 = %d: %s", status, body)
	}
	if n.store.Len() != 1 {
		t.Fatal("replicated PUT@5 not applied")
	}
	if status, body := send(http.MethodDelete, 7, nil); status != http.StatusOK {
		t.Fatalf("replicated DELETE@7 = %d: %s", status, body)
	}
	if n.store.Len() != 0 {
		t.Fatal("replicated DELETE@7 not applied")
	}

	// The race: a PUT stamped with epoch 6 — older than the DELETE — arrives
	// late (slow link, retry, hint replay). Applying it would resurrect the
	// deleted index; the epoch gate must drop it and say so.
	status, body := send(http.MethodPut, 6, raw)
	if status != http.StatusOK {
		t.Fatalf("stale replicated PUT@6 = %d: %s", status, body)
	}
	if !strings.Contains(body, `"skipped":true`) {
		t.Fatalf("stale replicated PUT@6 was not reported skipped: %s", body)
	}
	if n.store.Len() != 0 {
		t.Fatal("stale replicated PUT resurrected a deleted index")
	}

	// A genuinely newer PUT applies again...
	if status, body := send(http.MethodPut, 8, raw); status != http.StatusOK {
		t.Fatalf("replicated PUT@8 = %d: %s", status, body)
	}
	if n.store.Len() != 1 {
		t.Fatal("newer replicated PUT@8 not applied")
	}
	// ...and redelivering the same epoch (at-least-once retry) is idempotent.
	gen := n.store.Generation()
	if status, _ := send(http.MethodPut, 8, raw); status != http.StatusOK {
		t.Fatalf("redelivered PUT@8 = %d", status)
	}
	if n.store.Generation() != gen {
		t.Fatal("duplicate redelivery advanced the catalog generation")
	}
}

// TestHandoffJournalSurvivesRestart proves hints are durable: a server that
// crashed with undelivered hints must reload them from disk on restart and
// deliver them once the peer is reachable.
func TestHandoffJournalSurvivesRestart(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]

	partition(nodes[:1], nodes[1:])

	st := fitStats(t, "orders", "key", 1)
	status, body := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/key", mustMarshal(t, st))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("partitioned PUT = %d, want 503: %s", status, body)
	}
	if a.srv.handoff.pending() == 0 {
		t.Fatal("no hints queued")
	}

	// "Crash" node a's service: stop its drainer with the hint undelivered.
	a.srv.Close()

	// Restart the service over the same store, node, and handoff directory.
	// The hint journal must reload from disk.
	reborn, err := New(Config{
		Store:            a.store,
		Cluster:          a.node,
		Transport:        a.inj,
		ReplicateTimeout: 500 * time.Millisecond,
		HandoffDir:       a.handoffDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if reborn.handoff.pending() == 0 {
		t.Fatal("restarted server loaded no hints from the journal")
	}

	healAll(nodes)
	waitFor(t, 5*time.Second, func() bool {
		return reborn.DrainHandoff(context.Background()) == 0
	}, "hint drain after restart")
	if _, err := b.store.Get("orders", "key"); err != nil {
		t.Fatalf("journaled hint never delivered after restart: %v", err)
	}
}

// TestClusterIngestOwnershipRouting is the satellite for ingest routing: a
// batch posted to a non-owner is forwarded one hop to the ring owner (the
// response carries the owner's node header) and counted as a forwarded
// ingest batch, never as an estimate; an already-forwarded misroute answers
// 421, and a full scan streamed entirely through a non-owner still
// accumulates coherently on the owner and republishes cluster-wide.
func TestClusterIngestOwnershipRouting(t *testing.T) {
	nodes := startCluster(t, 3, 1) // R=1: exactly one owner per key
	ds, meta := ingestDataset(t, "lineitem", "suppkey", 9)
	trace := ds.Trace()
	key := "lineitem.suppkey"

	var owner, nonOwner *cnode
	for _, cn := range nodes {
		if cn.node.Owns(key) {
			owner = cn
		} else if nonOwner == nil {
			nonOwner = cn
		}
	}
	if owner == nil || nonOwner == nil {
		t.Fatalf("no owner/non-owner split for %s with R=1", key)
	}

	// A probe batch through the non-owner is forwarded: the 202 comes back
	// stamped with the owner's identity.
	before := promSeries(t, nonOwner.srv, "epfis_cluster_estimates_total", "epfis_cluster_ingest_forwarded_total")
	probe := IngestRequest{Table: meta.Table, Column: meta.Column, Pages: trace[:1],
		T: meta.T, N: meta.N, I: meta.I, BatchID: "probe-1"}
	raw, err := json.Marshal(probe)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := nonOwner.ts.Client().Post(nonOwner.url+"/v1/ingest", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded ingest = %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.HeaderNode); got != owner.id {
		t.Fatalf("forwarded ingest answered by %q, want owner %q", got, owner.id)
	}
	after := promSeries(t, nonOwner.srv, "epfis_cluster_estimates_total", "epfis_cluster_ingest_forwarded_total")
	const fwdOK = `epfis_cluster_ingest_forwarded_total{result="ok"}`
	if after[fwdOK] != before[fwdOK]+1 {
		t.Errorf("%s went %v -> %v over one forwarded batch, want +1", fwdOK, before[fwdOK], after[fwdOK])
	}
	for series, v := range after {
		if strings.HasPrefix(series, "epfis_cluster_estimates_total") && v != before[series] {
			t.Errorf("forwarded ingest batch moved %s: %v -> %v", series, before[series], v)
		}
	}

	// An already-forwarded batch landing on a non-owner is a routing bug:
	// 421, never a second forward.
	req, _ := http.NewRequest(http.MethodPost, nonOwner.url+"/v1/ingest", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "test")
	resp, err = nonOwner.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("double-forwarded ingest = %d, want 421", resp.StatusCode)
	}

	// Stream the whole scan through the non-owner. Forwarding must keep the
	// accumulation coherent on the single owner; the republished entry then
	// replicates everywhere and is bit-exact with the offline fit. The probe
	// batch already delivered trace[:1], so the stream continues from there.
	postIngest(t, nonOwner.ts, meta, trace[1:], true, rand.New(rand.NewSource(9)))
	owner.srv.Close() // drain the owner's worker

	want, err := core.LRUFit(trace, meta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range nodes {
		got, err := cn.store.Get("lineitem", "suppkey")
		if err != nil {
			t.Fatalf("%s: republished entry missing: %v", cn.id, err)
		}
		if got.FMin != want.FMin || got.C != want.C || len(got.Curve.Knots) != len(want.Curve.Knots) {
			t.Errorf("%s: republished entry diverges from offline fit", cn.id)
		}
	}
}

// promSeries scrapes srv's Prometheus exposition and returns every sample of
// the named families as series → value.
func promSeries(t testing.TB, srv *Server, families ...string) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	fams, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, name := range families {
			if f.Name == name {
				for _, s := range f.Samples {
					out[s.Name+"{"+s.CanonicalLabels()+"}"] = s.Value
				}
			}
		}
	}
	return out
}

// TestEqualEpochConflictConverges is the regression for the split-brain
// tiebreak: concurrent PUTs to the same key on opposite sides of a partition
// are stamped with the identical epoch, and with epoch-only ordering each
// side would drop the other's write as stale — permanent divergence. The
// (epoch, origin) stamp must make every node pick the same winner.
func TestEqualEpochConflictConverges(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]

	partition(nodes[:1], nodes[1:])

	fromA := fitStats(t, "orders", "contested", 1)
	fromB := fitStats(t, "orders", "contested", 2)
	if fromA.C == fromB.C && fromA.FMin == fromB.FMin {
		t.Fatal("test needs distinguishable payloads")
	}
	if status, body := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/contested", mustMarshal(t, fromA)); status != http.StatusServiceUnavailable {
		t.Fatalf("partitioned PUT on a = %d, want 503: %s", status, body)
	}
	if status, body := rawMutate(t, b.cnode, http.MethodPut, "/v1/indexes/orders/contested", mustMarshal(t, fromB)); status != http.StatusServiceUnavailable {
		t.Fatalf("partitioned PUT on b = %d, want 503: %s", status, body)
	}

	// Precondition: both sides really did assign the same epoch — otherwise
	// this test degenerates into the plain epoch-ordering case.
	sa, sb := a.node.KeyStamp("orders.contested"), b.node.KeyStamp("orders.contested")
	if sa.Epoch != sb.Epoch {
		t.Fatalf("epochs diverged before heal (a=%d b=%d); conflict scenario not reproduced", sa.Epoch, sb.Epoch)
	}
	if sa.Origin != a.id || sb.Origin != b.id {
		t.Fatalf("origins misrecorded: a=%+v b=%+v", sa, sb)
	}

	healAll(nodes)
	converge(t, nodes)

	// node-b sorts after node-a, so b's write must win on BOTH nodes.
	for _, n := range nodes {
		got, err := n.store.Get("orders", "contested")
		if err != nil {
			t.Fatalf("%s: contested key missing after heal: %v", n.id, err)
		}
		if got.C != fromB.C || got.FMin != fromB.FMin {
			t.Errorf("%s: contested key holds the losing write (C=%v FMin=%v, want C=%v FMin=%v)",
				n.id, got.C, got.FMin, fromB.C, fromB.FMin)
		}
	}
}

// TestDeleteTombstoneSurvivesRestart is the regression for resurrection via
// snapshot: a node that applied a DELETE during a partition, crashed, and
// restarted must still refuse to re-adopt the deleted key from a peer's
// anti-entropy snapshot. Without the durable stamp journal the tombstone
// dies with the process and the snapshot merge resurrects the key.
func TestDeleteTombstoneSurvivesRestart(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]

	keep := fitStats(t, "orders", "keep", 1)
	doomed := fitStats(t, "orders", "doomed", 2)
	putIndex(t, a.cnode, keep)
	putIndex(t, a.cnode, doomed)
	if b.store.Len() != 2 {
		t.Fatalf("b store len = %d before partition, want 2", b.store.Len())
	}

	partition(nodes[:1], nodes[1:])

	// The DELETE applies locally on a (tombstone journaled), queues a hint,
	// and answers an honest 503 — b never hears about it.
	status, body := rawMutate(t, a.cnode, http.MethodDelete, "/v1/indexes/orders/doomed", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("partitioned DELETE = %d, want 503: %s", status, body)
	}
	if _, err := a.store.Get("orders", "doomed"); err == nil {
		t.Fatal("DELETE not applied locally")
	}

	// Crash node a: the service stops and the in-memory stamp table dies with
	// the process. The restart builds a brand-new cluster node over the same
	// store and journals.
	a.srv.Close()
	renode, err := cluster.NewNode(cluster.Config{
		SelfID:       a.id,
		SelfURL:      a.url,
		Seeds:        []string{b.url},
		Replicas:     2,
		Heartbeat:    50 * time.Millisecond,
		SuspectAfter: 300 * time.Millisecond,
		DeadAfter:    time.Hour,
		Store:        a.store,
		HTTPClient:   a.inj.Client(2 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := New(Config{
		Store:            a.store,
		Cluster:          renode,
		Transport:        a.inj,
		ReplicateTimeout: 500 * time.Millisecond,
		HandoffDir:       a.handoffDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()

	healAll(nodes)

	// Anti-entropy pull from b, which still holds the deleted key. The
	// journal-reloaded tombstone must keep it out of a's store.
	if err := renode.PullSnapshot(context.Background(), b.url); err != nil {
		t.Fatal(err)
	}
	if _, err := a.store.Get("orders", "doomed"); err == nil {
		t.Fatal("snapshot pull resurrected a deleted key after restart")
	}

	// The journaled hint then propagates the DELETE to b. Tick gossip so the
	// reborn node discovers b's address before draining.
	waitFor(t, 10*time.Second, func() bool {
		renode.Tick(context.Background())
		return reborn.DrainHandoff(context.Background()) == 0
	}, "hint drain after restart")
	if _, err := b.store.Get("orders", "doomed"); err == nil {
		t.Fatal("DELETE hint never delivered to b after restart")
	}
	ha, _, err := a.store.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	hb, _, err := b.store.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("stores diverged after restart + heal: a=%q b=%q", ha, hb)
	}
}

// TestConcurrentDrainDeliversEveryHint is the regression for the drain race:
// the background sweeper and synchronous DrainHandoff calls used to both read
// queue[0], deliver it twice, and pop twice — silently discarding the second
// popped hint. With per-peer drain serialization, hammering DrainHandoff from
// many goroutines must still deliver every queued hint exactly as recorded.
// Gossip is deliberately never ticked after heal, so anti-entropy cannot mask
// a dropped hint.
func TestConcurrentDrainDeliversEveryHint(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]

	partition(nodes[:1], nodes[1:])

	const hints = 8
	sts := make([]*stats.IndexStats, hints)
	for i := range sts {
		sts[i] = fitStats(t, "orders", fmt.Sprintf("k%d", i), int64(i+1))
		status, body := rawMutate(t, a.cnode, http.MethodPut, fmt.Sprintf("/v1/indexes/orders/k%d", i), mustMarshal(t, sts[i]))
		if status != http.StatusServiceUnavailable {
			t.Fatalf("partitioned PUT k%d = %d, want 503: %s", i, status, body)
		}
	}
	if got := a.srv.handoff.pending(); got != hints {
		t.Fatalf("pending hints = %d, want %d", got, hints)
	}

	healAll(nodes)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				a.srv.DrainHandoff(context.Background())
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool {
		return a.srv.DrainHandoff(context.Background()) == 0
	}, "hint queues to empty")

	for i := 0; i < hints; i++ {
		if _, err := b.store.Get("orders", fmt.Sprintf("k%d", i)); err != nil {
			t.Errorf("hint for orders.k%d lost under concurrent drains: %v", i, err)
		}
	}
}

// TestHandoffAbandonsAbsentPeer is the regression for unbounded hint growth:
// hints queued for a peer that never appears in membership (decommissioned or
// renamed before restart) must be dropped — queue, journal file, and all —
// once the peer has been absent past the abandon horizon, and the drop must
// be visible in the abandoned counter.
func TestHandoffAbandonsAbsentPeer(t *testing.T) {
	store := catalog.NewStore()
	node, err := cluster.NewNode(cluster.Config{
		SelfID:  "solo",
		SelfURL: "http://127.0.0.1:1",
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:               store,
		Cluster:             node,
		HandoffDir:          t.TempDir(),
		HandoffAbandonAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.handoff.enqueue(hintRecord{
		Peer: "ghost", Method: http.MethodDelete,
		Path: "/v1/indexes/t/c", Epoch: 1, Key: "t.c",
	})
	path := srv.handoff.hintPath("ghost")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("hint journal not created: %v", err)
	}
	if srv.handoff.orphaned() != 1 {
		t.Fatalf("orphaned gauge = %d, want 1", srv.handoff.orphaned())
	}

	// The background sweeper marks the peer absent on its first pass and
	// drops the queue on the first pass after the 50ms horizon.
	waitFor(t, 10*time.Second, func() bool {
		return srv.handoff.pending() == 0
	}, "ghost queue abandonment")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("abandoned hint journal still on disk: %v", err)
	}
	if got := srv.handoff.abandonedC.Value(); got != 1 {
		t.Fatalf("abandoned counter = %d, want 1", got)
	}
}

// TestClusterPartitionReadFence is the read-your-writes drill. Every node
// answers estimates from its own replica, so a write acknowledged at quorum
// can be missing from a non-owner whose link from the coordinator is down.
// The write's fence must turn that replica's answer into an honest 503
// rather than a stale number, per key on a batch, until handoff delivers
// the write; an unfenced read meanwhile gets the replica's own version,
// bit-exactly. The coordinator's per-peer handoff gauge shows the lag.
func TestClusterPartitionReadFence(t *testing.T) {
	nodes := startFaultCluster(t, 3, 2)
	const key = "orders.key"
	var coord, stale *fnode
	for _, n := range nodes {
		if !n.node.Owns(key) {
			stale = n
		} else if coord == nil {
			coord = n
		}
	}
	if coord == nil || stale == nil {
		t.Fatalf("no owner/non-owner split for %s at R=2 over 3 nodes", key)
	}
	v1, v2 := fitStats(t, "orders", "key", 1), fitStats(t, "orders", "key", 2)
	other := fitStats(t, "orders", "other", 3)
	const b, sigma = 100, 0.1
	want1, err := core.EstimateFetches(v1, b, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := core.EstimateFetches(v2, b, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want1 == want2 {
		t.Fatal("test needs versions with distinguishable estimates")
	}
	// mutate runs one write of orders.<column> through the coordinator and
	// returns its fence; st is the PUT body, nil for a DELETE.
	mutate := func(method, column string, st *stats.IndexStats) string {
		t.Helper()
		var body []byte
		if st != nil {
			body = mustMarshal(t, st)
		}
		status, raw := rawMutate(t, coord.cnode, method, "/v1/indexes/orders/"+column, body)
		var ack struct{ Fence string }
		if err := json.Unmarshal([]byte(raw), &ack); status != http.StatusOK || err != nil || ack.Fence == "" {
			t.Fatalf("%s via %s = %d %s, want 200 with a fence", method, coord.id, status, raw)
		}
		return ack.Fence
	}
	mutate(http.MethodPut, "key", v1)
	fenceOther := mutate(http.MethodPut, "other", other)
	waitFor(t, 5*time.Second, func() bool { return stale.store.Len() == 2 }, "version 1 on the non-owner")

	path := fmt.Sprintf("/v1/estimate?table=orders&column=key&b=%d&sigma=%v", b, sigma)
	get := func(p string, fences ...string) (int, http.Header, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, stale.url+p, nil)
		for _, f := range fences {
			req.Header.Add(cluster.HeaderFence, f)
		}
		resp, err := stale.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header, string(raw)
	}
	fetches := func(raw string) float64 {
		t.Helper()
		var er EstimateResponse
		if err := json.Unmarshal([]byte(raw), &er); err != nil {
			t.Fatal(err)
		}
		return er.Fetches
	}
	pending := func() float64 {
		return promSeries(t, coord.srv, "epfis_cluster_handoff_pending")[`epfis_cluster_handoff_pending{peer="`+stale.id+`"}`]
	}
	const staleSeries = `epfis_cluster_estimates_total{source="stale"}`

	// Cut the coordinator's link to the non-owner; version 2 still acks at
	// quorum, the two owners holding it.
	coord.inj.Block(stale.host())
	fence2 := mutate(http.MethodPut, "key", v2)
	waitFor(t, 5*time.Second, func() bool { return pending() >= 1 }, "a hint queued for the non-owner")

	before := promSeries(t, stale.srv, "epfis_cluster_estimates_total")[staleSeries]
	status, hdr, raw := get(path, fence2)
	if status != http.StatusServiceUnavailable || !strings.Contains(raw, ErrStaleReplica.Error()) || hdr.Get("Retry-After") == "" {
		t.Fatalf("fenced GET on the lagging replica = %d %s (Retry-After %q), want 503 %v",
			status, raw, hdr.Get("Retry-After"), ErrStaleReplica)
	}
	var refusal struct{ Error string }
	if err := json.Unmarshal([]byte(raw), &refusal); err != nil {
		t.Fatal(err)
	}
	// Fences for other keys neither help nor hurt, comma-folded or not.
	if status, _, raw := get(path, fenceOther+","+fence2); status != http.StatusServiceUnavailable || !strings.Contains(raw, refusal.Error) {
		t.Fatalf("comma-folded fences = %d %s, want the same 503", status, raw)
	}
	if after := promSeries(t, stale.srv, "epfis_cluster_estimates_total")[staleSeries]; after != before+2 {
		t.Errorf("%s went %v -> %v over two refused reads, want +2", staleSeries, before, after)
	}
	if status, _, raw := get(path); status != http.StatusOK || fetches(raw) != want1 {
		t.Fatalf("unfenced GET on the lagging replica = %d %s, want 200 bit-exact with version 1 (%v)", status, raw, want1)
	}

	// A fenced batch fails only the fenced key's items, with the same
	// refusal; the other index is served.
	body, err := json.Marshal(BatchRequest{Requests: []EstimateRequest{
		{Table: "orders", Column: "key", B: b, Sigma: sigma},
		{Table: "orders", Column: "other", B: b, Sigma: sigma},
	}})
	if err != nil {
		t.Fatal(err)
	}
	observed := func() map[string]float64 {
		return promSeries(t, stale.srv, "epfis_estimates_total", "epfis_estimate_buffer_pages")
	}
	obsBefore := observed()
	req, _ := http.NewRequest(http.MethodPost, stale.url+"/v1/estimate/batch", bytes.NewReader(body))
	req.Header.Add(cluster.HeaderFence, fence2)
	req.Header.Add(cluster.HeaderFence, fenceOther) // repeated header, one token per key
	resp, err := stale.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(batch.Items) != 2 {
		t.Fatalf("fenced batch = %d (%v) %+v", resp.StatusCode, err, batch)
	}
	if it := batch.Items[0]; it.Status != http.StatusServiceUnavailable || it.Error != refusal.Error {
		t.Errorf("fenced item = %+v, want 503 %q", it, refusal.Error)
	}
	wantOther, err := core.EstimateFetches(other, b, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	if it := batch.Items[1]; it.Estimate == nil || it.Estimate.Fetches != wantOther || batch.Failed != 1 {
		t.Errorf("unfenced item = %+v (failed %d), want fetches %v", it, batch.Failed, wantOther)
	}
	// Only the served item reaches the estimate metrics; the refused one was
	// never costed.
	obsAfter := observed()
	for _, series := range []string{"epfis_estimates_total{}", "epfis_estimate_buffer_pages_count{}"} {
		if obsAfter[series] != obsBefore[series]+1 {
			t.Errorf("%s went %v -> %v over a batch with one served item", series, obsBefore[series], obsAfter[series])
		}
	}

	// ClusterClient carries the fence through WithFence. Its member order
	// for the key starts at the lagging replica, so the fenced read is
	// refused there and fails over to a node that has the write.
	cc, err := NewClusterClient(ClusterClientConfig{Seeds: []string{stale.url},
		Retry: resilience.RetryPolicy{MaxAttempts: 1}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	order, err := cc.order(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if order[0].id != stale.id {
		t.Fatalf("client starts %s at %s, want the lagging %s", key, order[0].id, stale.id)
	}
	before = promSeries(t, stale.srv, "epfis_cluster_estimates_total")[staleSeries]
	got, err := cc.Estimate(WithFence(context.Background(), fence2), EstimateRequest{Table: "orders", Column: "key", B: b, Sigma: sigma})
	if err != nil || got.Fetches != want2 {
		t.Fatalf("fenced ClusterClient estimate = %v, %v; want %v", got.Fetches, err, want2)
	}
	if after := promSeries(t, stale.srv, "epfis_cluster_estimates_total")[staleSeries]; after != before+1 {
		t.Errorf("ClusterClient's fenced read was not refused by %s first (%s %v -> %v)", stale.id, staleSeries, before, after)
	}

	for _, bad := range []string{"orders.key", "orders/key/x/node-a", "orders/key/0/node-a", "orders/key/1/", "a/b/1/n/extra"} {
		if status, _, raw := get(path, bad); status != http.StatusBadRequest || !strings.Contains(raw, ErrBadFence.Error()) {
			t.Errorf("fence %q = %d %s, want 400 %v", bad, status, raw, ErrBadFence)
		}
	}

	// Heal and drain: the hint delivers version 2, the fence passes, and
	// the lag gauge returns to zero.
	healAll(nodes)
	if left := coord.srv.DrainHandoff(context.Background()); left != 0 {
		t.Fatalf("%d hints still pending after heal", left)
	}
	if status, _, raw := get(path, fence2); status != http.StatusOK || fetches(raw) != want2 {
		t.Fatalf("fenced GET after drain = %d %s, want 200 bit-exact with version 2 (%v)", status, raw, want2)
	}
	if p := pending(); p != 0 {
		t.Errorf("handoff gauge for %s = %v after the drain, want 0", stale.id, p)
	}

	// A DELETE's fence holds the same way: refused while the delete is
	// undelivered, 404 once it is drained.
	coord.inj.Block(stale.host())
	fenceDel := mutate(http.MethodDelete, "key", nil)
	if status, _, raw := get(path, fenceDel); status != http.StatusServiceUnavailable {
		t.Fatalf("fenced GET before the delete arrives = %d %s, want 503", status, raw)
	}
	healAll(nodes)
	if left := coord.srv.DrainHandoff(context.Background()); left != 0 {
		t.Fatalf("%d hints still pending after heal", left)
	}
	if status, _, raw := get(path, fenceDel); status != http.StatusNotFound {
		t.Fatalf("fenced GET after the drained delete = %d %s, want 404", status, raw)
	}
}
