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
	"reflect"
	"slices"
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

// fnode is one partition-drill cluster member: a WAL-backed store and a
// faultnet injector sitting on every outbound HTTP hop (gossip,
// anti-entropy, replication, forwarding).
type fnode struct {
	*cnode
	inj         *faultnet.Injector
	catalogPath string
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
		cfg := Config{
			Store:            store,
			Cluster:          node,
			Transport:        inj,
			ReplicateTimeout: 500 * time.Millisecond,
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

// converge ticks gossip — each exchange whose catalog hashes differ pulls
// at both ends — until every node reports the same catalog hash (entries,
// stamps and tombstones alike), or fails after the deadline.
func converge(t *testing.T, nodes []*fnode) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, n := range nodes {
			n.node.Tick(context.Background())
		}
		hashes := make([]string, len(nodes))
		same := true
		for i, n := range nodes {
			hashes[i] = n.node.CatalogHash()
			if hashes[i] != hashes[0] {
				same = false
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stores never converged: %v", hashes)
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
	return send(t, cn, req)
}

// send issues req to the node and returns the status plus body.
func send(t testing.TB, cn *cnode, req *http.Request) (int, string) {
	t.Helper()
	resp, err := cn.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(raw)
}

// pushBody renders the push a peer sends for one key: the one-key entries
// stream of a store holding e under st or, with e nil, key's tombstone
// under st.
func pushBody(t testing.TB, key string, e *stats.IndexStats, st cluster.Stamp) []byte {
	t.Helper()
	src := catalog.NewStore()
	var err error
	if e != nil {
		_, err = src.PutStamped(e, st)
	} else {
		_, _, err = src.Merge(map[string]catalog.Incoming{key: {Version: catalog.Version{Stamp: st, Tombstone: true}}})
	}
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := src.ExportEntries([]string{key}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// push delivers a push stream to a node's push route, as a peer does, and
// returns the status and body.
func push(t testing.TB, cn *cnode, body []byte) (int, string) {
	t.Helper()
	resp, err := cn.ts.Client().Post(cn.url+cluster.PathPush, "application/octet-stream", bytes.NewReader(body))
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
// must answer honest 503s (applied locally); the majority must keep acking
// with quorum. After the partition heals, gossip-triggered pulls must
// converge every node to the same catalog hash, every node must serve
// bit-exact estimates, and a crash image of the minority node must rebuild
// the identical catalog from its WAL.
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
	// succeed; the sends to the unreachable minority fail.
	major := fitStats(t, "orders", "major", 3)
	if status, body := rawMutate(t, b.cnode, http.MethodPut, "/v1/indexes/orders/major", mustMarshal(t, major)); status != http.StatusOK {
		t.Fatalf("majority PUT = %d, want 200: %s", status, body)
	}
	if status, body := rawMutate(t, c.cnode, http.MethodDelete, "/v1/indexes/orders/doomed", nil); status != http.StatusOK {
		t.Fatalf("majority DELETE = %d, want 200: %s", status, body)
	}

	// Minority side: the write quorum is unreachable. The mutation applies
	// locally, its failed sends are counted, and the client gets an honest
	// 503.
	minor := fitStats(t, "orders", "minor", 4)
	status, body := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/minor", mustMarshal(t, minor))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("minority PUT = %d, want 503: %s", status, body)
	}
	if _, err := a.store.Get("orders", "minor"); err != nil {
		t.Fatalf("minority PUT not applied locally: %v", err)
	}
	if a.srv.cobs.replFailures.Value() == 0 {
		t.Fatal("minority PUT counted no failed sends")
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

	var bytesBefore uint64
	for _, n := range nodes {
		bytesBefore += n.node.AntiEntropyBytes()
	}
	healed := time.Now()
	healAll(nodes)
	converge(t, nodes)
	var bytesAfter uint64
	for _, n := range nodes {
		bytesAfter += n.node.AntiEntropyBytes()
	}
	t.Logf("heal to converged: %v, %d anti-entropy bytes", time.Since(healed), bytesAfter-bytesBefore)

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
	want, _, err := a.store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	re := crashImage(t, a)
	got, _, err := re.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crash image recovered %v, live store has %v", got, want)
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
// quorum; a write from the degraded node applies locally and answers 503,
// and a's pull over the working direction hands it to a even before the
// link heals.
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

	// b cannot reach a: local apply, honest 503.
	viaB := fitStats(t, "orders", "via_b", 2)
	status, body := rawMutate(t, b.cnode, http.MethodPut, "/v1/indexes/orders/via_b", mustMarshal(t, viaB))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("PUT via degraded direction = %d, want 503: %s", status, body)
	}
	if _, err := b.store.Get("orders", "via_b"); err != nil {
		t.Fatalf("degraded PUT not applied locally: %v", err)
	}

	converge(t, nodes)
	if _, err := a.store.Get("orders", "via_b"); err != nil {
		t.Fatalf("the degraded node's write never reached a: %v", err)
	}
	if got, want := a.node.KeyStamp("orders.via_b"), b.node.KeyStamp("orders.via_b"); got != want {
		t.Fatalf("a holds orders.via_b under %v, b under %v", got, want)
	}
	b.inj.Heal()
}

// TestReplicatedDeleteEpochGuard is the regression for the DELETE
// resurrection race, over pushes: a push of a write that was assigned an
// older stamp than a later DELETE arrives out of order and must not be
// taken.
func TestReplicatedDeleteEpochGuard(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	n := nodes[0]
	e := fitStats(t, "orders", "key", 1)
	at := func(epoch uint64) cluster.Stamp { return cluster.Stamp{Epoch: epoch, Origin: "peer-x"} }

	if status, body := push(t, n, pushBody(t, "orders.key", e, at(5))); status != http.StatusOK {
		t.Fatalf("push of PUT@5 = %d: %s", status, body)
	}
	if n.store.Len() != 1 {
		t.Fatal("push of PUT@5 not taken")
	}
	if status, body := push(t, n, pushBody(t, "orders.key", nil, at(7))); status != http.StatusOK {
		t.Fatalf("push of DELETE@7 = %d: %s", status, body)
	}
	if n.store.Len() != 0 {
		t.Fatal("push of DELETE@7 not taken")
	}

	// The race: a PUT stamped with epoch 6 — older than the DELETE — arrives
	// late (slow link, retry). Taking it would resurrect the deleted index;
	// the merge must skip it and say so.
	status, body := push(t, n, pushBody(t, "orders.key", e, at(6)))
	if status != http.StatusOK {
		t.Fatalf("stale push of PUT@6 = %d: %s", status, body)
	}
	if !strings.Contains(body, `"skipped":true`) {
		t.Fatalf("stale push of PUT@6 was not reported skipped: %s", body)
	}
	if n.store.Len() != 0 {
		t.Fatal("stale push resurrected a deleted index")
	}
	if got := promSeries(t, n.srv, "epfis_cluster_stale_mutations_total")["epfis_cluster_stale_mutations_total{}"]; got != 1 {
		t.Fatalf("epfis_cluster_stale_mutations_total = %g after one skipped push, want 1", got)
	}

	// A genuinely newer PUT applies again...
	if status, body := push(t, n, pushBody(t, "orders.key", e, at(8))); status != http.StatusOK {
		t.Fatalf("push of PUT@8 = %d: %s", status, body)
	}
	if n.store.Len() != 1 {
		t.Fatal("newer push of PUT@8 not taken")
	}
	// ...and redelivering the same push (at-least-once retry) is idempotent.
	gen := n.store.Generation()
	if status, _ := push(t, n, pushBody(t, "orders.key", e, at(8))); status != http.StatusOK {
		t.Fatalf("redelivered push of PUT@8 = %d", status)
	}
	if n.store.Generation() != gen {
		t.Fatal("duplicate redelivery advanced the catalog generation")
	}
}

// restartFrom brings node n back after a crash: a fresh cluster node and
// server over store, with n's identity and injector, serving on a new
// listener (the crashed one stops answering) and seeded with the peers.
func restartFrom(t *testing.T, n *fnode, store *catalog.Store, peers ...*fnode) *cnode {
	t.Helper()
	n.ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	var seeds []string
	for _, p := range peers {
		seeds = append(seeds, p.url)
	}
	node, err := cluster.NewNode(cluster.Config{
		SelfID: n.id, SelfURL: url, Seeds: seeds, Replicas: 2,
		Heartbeat: 50 * time.Millisecond, SuspectAfter: 300 * time.Millisecond, DeadAfter: time.Hour,
		Store: store, HTTPClient: n.inj.Client(2 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Cluster: node, Transport: n.inj, ReplicateTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	return &cnode{id: n.id, url: url, store: store, node: node, srv: srv, ts: ts}
}

// TestAckedWriteReachesPeerAfterSenderRestart: a write the sender applied
// but could not replicate (503, partitioned) must still reach the peer after
// the sender crashes and restarts from its WAL files alone — no journal of
// its own, just the stamped frame in the log and the peer's pull.
func TestAckedWriteReachesPeerAfterSenderRestart(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]

	partition(nodes[:1], nodes[1:])

	st := fitStats(t, "orders", "key", 1)
	status, body := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/key", mustMarshal(t, st))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("partitioned PUT = %d, want 503: %s", status, body)
	}
	stamp := a.node.KeyStamp("orders.key")

	// Crash node a: the restart reopens a copy of its catalog files, taken
	// while the crashed store is neither closed nor checkpointed.
	a.srv.Close()
	reborn := restartFrom(t, a, crashImage(t, a), b)
	if got := reborn.node.KeyStamp("orders.key"); got != stamp {
		t.Fatalf("the write's stamp after the restart = %v, want %v", got, stamp)
	}

	healAll(nodes)
	waitFor(t, 10*time.Second, func() bool {
		reborn.node.Tick(context.Background())
		b.node.Tick(context.Background())
		return b.node.KeyStamp("orders.key") == stamp
	}, "the restarted sender's write on b")
	got, err := b.store.Get("orders", "key")
	if err != nil || got.FMin != st.FMin || got.C != st.C {
		t.Fatalf("b holds %+v (%v) after heal, want the restarted sender's write", got, err)
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
		// The owner acknowledges the republish at its quorum (itself, with
		// R=1); the fan-out to the other nodes finishes in the background.
		waitFor(t, 5*time.Second, func() bool {
			_, err := cn.store.Get("lineitem", "suppkey")
			return err == nil
		}, cn.id+": republished entry")
		got, err := cn.store.Get("lineitem", "suppkey")
		if err != nil {
			t.Fatalf("%s: republished entry missing: %v", cn.id, err)
		}
		if got.FMin != want.FMin || got.C != want.C || len(got.Curve.Knots) != len(want.Curve.Knots) {
			t.Errorf("%s: republished entry diverges from offline fit", cn.id)
		}
	}
}

// TestClusterIngestOneHomePerKey is the regression for split ingest
// streams at R = 2: two full scans of one index, streamed in batches of
// 1-4,096 references round-robin over all three nodes, must all reach one
// accumulator, the key's ingest home. Every node then serves an entry
// bit-exact with offline LRU-Fit of one scan, and only the home counts
// scans. When the key's two owners each accumulated their own batches,
// one owner completed a window from pieces of both scans and every node
// served its wrong refit.
func TestClusterIngestOneHomePerKey(t *testing.T) {
	nodes := startFaultCluster(t, 3, 2)
	ds, meta := ingestDataset(t, "lineitem", "suppkey", 9)
	trace := ds.Trace()
	key := meta.Table + "." + meta.Column
	home := nodes[0].srv.ingestHome(key)
	for _, n := range nodes {
		if got := n.srv.ingestHome(key); got.ID != home.ID || !slices.ContainsFunc(n.node.Owners(key), func(p cluster.PeerInfo) bool { return p.ID == home.ID }) {
			t.Fatalf("%s: ingest home of %s is %q, want the owner %q every node names", n.id, key, got.ID, home.ID)
		}
	}

	rng := rand.New(rand.NewSource(9))
	next := 0
	for scan := 0; scan < 2; scan++ {
		for rest := trace; len(rest) > 0; next++ {
			n := min(1+rng.Intn(4096), len(rest))
			req := IngestRequest{Table: meta.Table, Column: meta.Column, Pages: rest[:n],
				T: meta.T, N: meta.N, I: meta.I, BatchID: fmt.Sprintf("scan%d-%d", scan, next)}
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			via := nodes[next%len(nodes)]
			resp, err := via.ts.Client().Post(via.url+"/v1/ingest", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("batch %d via %s = %d, want 202", next, via.id, resp.StatusCode)
			}
			rest = rest[n:]
		}
	}
	for _, n := range nodes {
		n.srv.Close() // drain each worker: every queued batch is processed
	}

	want, err := core.LRUFit(trace, meta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		wantScans := 0.0
		if n.id == home.ID {
			wantScans = 2
		}
		if scans := promSeries(t, n.srv, "epfis_ingest_scans_total")["epfis_ingest_scans_total{}"]; scans != wantScans {
			t.Errorf("%s counted %v scans, want %v (ingest home %s)", n.id, scans, wantScans, home.ID)
		}
		waitFor(t, 5*time.Second, func() bool {
			_, err := n.store.Get(meta.Table, meta.Column)
			return err == nil
		}, n.id+": republished entry")
		got, err := n.store.Get(meta.Table, meta.Column)
		if err != nil {
			t.Fatal(err)
		}
		if got.C != want.C || got.FMin != want.FMin || got.BMin != want.BMin || got.BMax != want.BMax ||
			!reflect.DeepEqual(got.Curve, want.Curve) {
			t.Errorf("%s serves C = %v, FMin = %d, %d knots; offline LRU-Fit of one scan gives C = %v, FMin = %d, %d knots",
				n.id, got.C, got.FMin, len(got.Curve.Knots), want.C, want.FMin, len(want.Curve.Knots))
		}
		for _, b := range []int64{want.BMin, (want.BMin + want.BMax) / 2, want.BMax} {
			var est EstimateResponse
			getJSON(t, n.ts, fmt.Sprintf("/v1/estimate?table=%s&column=%s&b=%d&sigma=0.2", meta.Table, meta.Column, b), http.StatusOK, &est)
			if wantF, err := core.EstimateFetches(want, b, 0.2, 1); err != nil || est.Fetches != wantF {
				t.Errorf("%s: fetches(B=%d) = %v, offline %v (%v)", n.id, b, est.Fetches, wantF, err)
			}
		}
	}
}

// promSeries scrapes srv's Prometheus exposition and returns every sample of
// the named families as series → value.
func promSeries(t testing.TB, srv *Server, families ...string) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
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

// TestDeleteTombstoneSurvivesRestart is the regression for resurrection by
// anti-entropy: a node that applied a DELETE during a partition, crashed,
// and restarted must still refuse to re-adopt the deleted key from a peer's
// older copy. The restart reopens the catalog from its files alone, with no
// clean shutdown, so the tombstone must be durable in the WAL frame of the
// DELETE itself; without it the pull resurrects the key. The peer's own
// pull then takes the tombstone.
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

	// The DELETE applies locally on a (tombstone in its WAL frame) and
	// answers an honest 503 — b never hears about it.
	status, body := rawMutate(t, a.cnode, http.MethodDelete, "/v1/indexes/orders/doomed", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("partitioned DELETE = %d, want 503: %s", status, body)
	}
	if _, err := a.store.Get("orders", "doomed"); err == nil {
		t.Fatal("DELETE not applied locally")
	}

	// Crash node a: the service stops, and the restart reopens the catalog
	// from its files (the crashed store is neither closed nor checkpointed)
	// under a brand-new cluster node.
	a.srv.Close()
	restore, err := catalog.OpenWAL(a.catalogPath, catalog.WALOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restore.Close() })
	reborn := restartFrom(t, a, restore, b)
	tomb := reborn.node.KeyStamp("orders.doomed")
	if tomb == (cluster.Stamp{}) {
		t.Fatal("the DELETE's tombstone did not survive reopening the WAL")
	}

	healAll(nodes)

	// Anti-entropy pull from b, which still holds the deleted key. The
	// replayed tombstone orders after b's copy and keeps it out.
	if err := reborn.node.Sync(context.Background(), b.url); err != nil {
		t.Fatal(err)
	}
	if _, err := restore.Get("orders", "doomed"); err == nil {
		t.Fatal("pull resurrected a deleted key after restart")
	}

	// b's pull from the restarted node takes the tombstone.
	if err := b.node.Sync(context.Background(), reborn.url); err != nil {
		t.Fatal(err)
	}
	if _, err := b.store.Get("orders", "doomed"); err == nil {
		t.Fatal("the DELETE never reached b after restart")
	}
	if got := b.node.KeyStamp("orders.doomed"); got != tomb {
		t.Fatalf("b's tombstone %v, want %v", got, tomb)
	}
	if ha, hb := reborn.node.CatalogHash(), b.node.CatalogHash(); ha != hb {
		t.Fatalf("nodes diverged after restart + heal: a=%q b=%q", ha, hb)
	}
}

// TestInMemoryNodeRelearnsKeysAfterRestart restarts a cluster node whose
// catalog is in memory. Its stamps live in memory with its catalog, so after
// the restart it is a fresh node: one pull re-learns every key the cluster
// wrote and every tombstone, so a key deleted through the cluster stays
// deleted — also after a pull from a stale peer that still holds the key's
// older version.
func TestInMemoryNodeRelearnsKeysAfterRestart(t *testing.T) {
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	memNode := func(store *catalog.Store) (*cluster.Node, *Server) {
		node, err := cluster.NewNode(cluster.Config{
			SelfID: "node-a", SelfURL: urls[0], Seeds: urls[:2], Replicas: 2,
			Heartbeat: 50 * time.Millisecond, SuspectAfter: 300 * time.Millisecond, DeadAfter: time.Hour,
			Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: store, Cluster: node, HandoffDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return node, srv
	}
	node, srv := memNode(catalog.NewStore())
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener.Close()
	ts.Listener = lns[0]
	ts.Start()
	b := startClusterNode(t, "node-b", lns[1], urls[:2], 2, catalog.NewStore())
	for round := 0; round < 2; round++ {
		node.Tick(context.Background())
		b.node.Tick(context.Background())
	}
	// Both nodes own every key (R = 2), so each PUT through b applies on a
	// under b's stamp before it is acknowledged.
	keys := []*stats.IndexStats{fitStats(t, "orders", "key", 1), fitStats(t, "orders", "custno", 2)}
	for _, st := range keys {
		putIndex(t, b, st)
		if node.KeyStamp(st.Key()) == (cluster.Stamp{}) {
			t.Fatalf("%s not stamped on node-a before the restart", st.Key())
		}
	}
	// A stale peer keeps orders.doomed as first written; the cluster then
	// deletes it.
	doomed := fitStats(t, "orders", "doomed", 3)
	putIndex(t, b, doomed)
	stale := startClusterNode(t, "node-c", lns[2], urls[2:], 1, catalog.NewStore())
	if _, err := stale.store.PutStamped(doomed, b.node.KeyStamp("orders.doomed")); err != nil {
		t.Fatal(err)
	}
	if status, body := rawMutate(t, b, http.MethodDelete, "/v1/indexes/orders/doomed", nil); status != http.StatusOK {
		t.Fatalf("DELETE through b = %d: %s", status, body)
	}
	tomb := b.node.KeyStamp("orders.doomed")
	ts.Close()
	srv.Close()

	restore := catalog.NewStore()
	renode, _ := memNode(restore)
	if err := renode.Sync(context.Background(), b.url); err != nil {
		t.Fatal(err)
	}
	if got := restore.Len(); got != len(keys) {
		t.Fatalf("restarted in-memory node holds %d keys after the pull, want the %d live ones", got, len(keys))
	}
	for _, peer := range []*cnode{b, stale} {
		if err := renode.Sync(context.Background(), peer.url); err != nil {
			t.Fatal(err)
		}
		if _, err := restore.Get("orders", "doomed"); err == nil {
			t.Fatalf("a key deleted through the cluster came back after a pull from %s", peer.id)
		}
		if got := renode.KeyStamp("orders.doomed"); got != tomb {
			t.Fatalf("tombstone after a pull from %s = %v, want %v", peer.id, got, tomb)
		}
	}
}

// TestConcurrentSyncsDeliverEveryWrite: eight writes a node applied during a
// partition (each a 503) reach its peer through pulls run concurrently from
// both ends, each with the stamp its sender recorded. Concurrent merges of
// the same keys must neither lose nor double-apply one.
func TestConcurrentSyncsDeliverEveryWrite(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]

	partition(nodes[:1], nodes[1:])

	const writes = 8
	sts := make([]*stats.IndexStats, writes)
	for i := range sts {
		sts[i] = fitStats(t, "orders", fmt.Sprintf("k%d", i), int64(i+1))
		status, body := rawMutate(t, a.cnode, http.MethodPut, fmt.Sprintf("/v1/indexes/orders/k%d", i), mustMarshal(t, sts[i]))
		if status != http.StatusServiceUnavailable {
			t.Fatalf("partitioned PUT k%d = %d, want 503: %s", i, status, body)
		}
	}

	healAll(nodes)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for _, pair := range [][2]*fnode{{a, b}, {b, a}} {
			wg.Add(1)
			go func(from, to *fnode) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if err := to.node.Sync(context.Background(), from.url); err != nil {
						t.Errorf("%s pulling from %s: %v", to.id, from.id, err)
					}
				}
			}(pair[0], pair[1])
		}
	}
	wg.Wait()

	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("orders.k%d", i)
		got, err := b.store.Get("orders", fmt.Sprintf("k%d", i))
		if err != nil || got.FMin != sts[i].FMin {
			t.Errorf("%s on b = %+v (%v), want the partitioned write", key, got, err)
		}
		if sa, sb := a.node.KeyStamp(key), b.node.KeyStamp(key); sa != sb || sa.Origin != a.id {
			t.Errorf("%s stamped %v on a, %v on b", key, sa, sb)
		}
	}
	if ha, hb := a.node.CatalogHash(), b.node.CatalogHash(); ha != hb {
		t.Fatalf("catalog hashes differ after the pulls: %s vs %s", ha, hb)
	}
}

// TestClusterPartitionReadFence is the read-your-writes drill. Every node
// answers estimates from its own replica, so a write acknowledged at quorum
// can be missing from a non-owner whose link from the coordinator is down.
// The write's fence must turn that replica's answer into an honest 503
// rather than a stale number, per key on a batch, until the replica's pull
// takes the write; an unfenced read meanwhile gets the replica's own
// version, bit-exactly. The coordinator's per-peer lag gauge, computed from
// the replica's digest, shows the lag and reads 0 once the hashes agree.
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
	lag := func() float64 {
		return promSeries(t, coord.srv, "epfis_cluster_peer_lag_keys")[`epfis_cluster_peer_lag_keys{peer="`+stale.id+`"}`]
	}
	// holdPulls keeps the lagging replica from pulling (its digest and
	// entries requests are dropped) while the coordinator reads its digest.
	holdPulls := func() {
		for _, route := range []string{cluster.PathDigest, cluster.PathEntries} {
			stale.inj.Add(faultnet.Rule{Op: faultnet.OpRequest, Route: route, Count: -1, Mode: faultnet.ModeDrop})
		}
	}
	const staleSeries = `epfis_cluster_estimates_total{source="stale"}`

	// Cut the coordinator's link to the non-owner; version 2 still acks at
	// quorum, the two owners holding it. With the link back, the
	// coordinator's pull reads the replica's digest and counts the one key
	// it lags by.
	coord.inj.Block(stale.host())
	fence2 := mutate(http.MethodPut, "key", v2)
	holdPulls()
	coord.inj.Heal()
	if err := coord.node.Sync(context.Background(), stale.url); err != nil {
		t.Fatal(err)
	}
	if l := lag(); l != 1 {
		t.Fatalf("lag gauge for %s = %v with version 2 undelivered, want 1", stale.id, l)
	}

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

	// Let the replica pull: gossip delivers version 2, the fence passes,
	// and once the gossiped hashes agree the lag gauge reads zero.
	stale.inj.Reset()
	converge(t, nodes)
	if status, _, raw := get(path, fence2); status != http.StatusOK || fetches(raw) != want2 {
		t.Fatalf("fenced GET after the pull = %d %s, want 200 bit-exact with version 2 (%v)", status, raw, want2)
	}
	coord.node.Tick(context.Background())
	if l := lag(); l != 0 {
		t.Errorf("lag gauge for %s = %v after convergence, want 0", stale.id, l)
	}

	// A DELETE's fence holds the same way: refused while the delete is
	// undelivered, 404 once the replica's pull takes the tombstone.
	coord.inj.Block(stale.host())
	fenceDel := mutate(http.MethodDelete, "key", nil)
	if status, _, raw := get(path, fenceDel); status != http.StatusServiceUnavailable {
		t.Fatalf("fenced GET before the delete arrives = %d %s, want 503", status, raw)
	}
	healAll(nodes)
	converge(t, nodes)
	if status, _, raw := get(path, fenceDel); status != http.StatusNotFound {
		t.Fatalf("fenced GET after the pulled delete = %d %s, want 404", status, raw)
	}
}
