package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/resilience"
	"epfis/internal/stats"
)

// cnode is one in-process cluster member: its store, agent, service, and
// live listener.
type cnode struct {
	id    string
	url   string
	store *catalog.Store
	node  *cluster.Node
	srv   *Server
	ts    *httptest.Server
}

// startClusterNode brings up one service node bound to a pre-opened listener
// (the URL must be known before cluster.NewNode runs).
func startClusterNode(t testing.TB, id string, ln net.Listener, seeds []string, replicas int, store *catalog.Store) *cnode {
	t.Helper()
	url := "http://" + ln.Addr().String()
	node, err := cluster.NewNode(cluster.Config{
		SelfID:       id,
		SelfURL:      url,
		Seeds:        seeds,
		Replicas:     replicas,
		Heartbeat:    50 * time.Millisecond,
		SuspectAfter: 300 * time.Millisecond,
		DeadAfter:    2 * time.Second,
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
	t.Cleanup(ts.Close)
	return &cnode{id: id, url: url, store: store, node: node, srv: srv, ts: ts}
}

// startCluster brings up n nodes that all seed to each other and converges
// their membership (every ring sees every member).
func startCluster(t testing.TB, n, replicas int) []*cnode {
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
	nodes := make([]*cnode, n)
	for i := range nodes {
		nodes[i] = startClusterNode(t, fmt.Sprintf("node-%c", 'a'+i), lns[i], urls, replicas, catalog.NewStore())
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

// putIndex installs a catalog entry over HTTP via the given node.
func putIndex(t testing.TB, cn *cnode, st *stats.IndexStats) {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut,
		cn.url+"/v1/indexes/"+st.Table+"/"+st.Column, bytes.NewReader(raw))
	resp, err := cn.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT %s.%s via %s: status %d", st.Table, st.Column, cn.id, resp.StatusCode)
	}
}

func TestIndexIntrospection(t *testing.T) {
	srv, _, st := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var doc IndexDoc
	getJSON(t, ts, "/v1/indexes/orders.key", http.StatusOK, &doc)
	if doc.Key != "orders.key" || doc.Generation != 1 || !doc.Compiled {
		t.Errorf("IndexDoc = %+v", doc)
	}
	if doc.Summary.Pages != st.T || doc.Summary.Records != st.N || doc.Summary.CurveKnots != len(st.Curve.Knots) {
		t.Errorf("summary = %+v, want stats of %s.%s", doc.Summary, st.Table, st.Column)
	}
	if doc.Owners != nil {
		t.Errorf("single-node IndexDoc has owners %v, want none", doc.Owners)
	}
	getJSON(t, ts, "/v1/indexes/no.such", http.StatusNotFound, nil)
}

func TestClusterReplicationAndBitExactServing(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	st := fitStats(t, "orders", "key", 1)
	putIndex(t, nodes[0], st)

	// The PUT acks once the quorum (both owners, R = 2) has applied it. The
	// non-owner's copy is sent in the background after the ack (fast-ack),
	// so it must land shortly after, not before.
	for _, cn := range nodes {
		if cn.node.Owns("orders.key") && cn.store.Len() != 1 {
			t.Fatalf("owner %s store len = %d after acked PUT", cn.id, cn.store.Len())
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, cn := range nodes {
			if cn.store.Len() != 1 || cn.node.Epoch() == 0 {
				return false
			}
		}
		return true
	}, "the replicated PUT on every store")

	// Every node answers bit-exactly from its own replica, whether it owns
	// the key or not, and says so in X-Epfis-Node.
	want, err := core.EstimateFetches(st, 100, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const path = "/v1/estimate?table=orders&column=key&b=100&sigma=0.1"
	for _, cn := range nodes {
		resp, err := cn.ts.Client().Get(cn.url + path)
		if err != nil {
			t.Fatal(err)
		}
		var got EstimateResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode %v", cn.id, resp.StatusCode, err)
		}
		if got.Fetches != want {
			t.Errorf("%s: estimate = %v, want %v (owns=%v)",
				cn.id, got.Fetches, want, cn.node.Owns("orders.key"))
		}
		if by := resp.Header.Get(cluster.HeaderNode); by != cn.id {
			t.Errorf("%s: answered by %q, want itself (owns=%v)", cn.id, by, cn.node.Owns("orders.key"))
		}
	}

	// The introspection route reports the replica set in cluster mode.
	var doc IndexDoc
	getJSON(t, nodes[0].ts, "/v1/indexes/orders.key", http.StatusOK, &doc)
	if len(doc.Owners) != 2 {
		t.Errorf("IndexDoc owners = %v, want 2 entries", doc.Owners)
	}

	// A batch sent to a non-owner is served there, item for item.
	var nonOwner *cnode
	for _, cn := range nodes {
		if !cn.node.Owns("orders.key") {
			nonOwner = cn
			break
		}
	}
	if nonOwner == nil {
		t.Fatal("no non-owner with R=2 over 3 nodes")
	}
	var batch BatchResponse
	postJSON(t, nonOwner.ts, "/v1/estimate/batch", BatchRequest{Requests: []EstimateRequest{
		{Table: "orders", Column: "key", B: 100, Sigma: 0.1},
	}}, http.StatusOK, &batch)
	if batch.Failed != 0 || batch.Items[0].Estimate == nil || batch.Items[0].Estimate.Fetches != want {
		t.Errorf("non-owner batch item = %+v, want fetches %v", batch.Items[0], want)
	}

	// DELETE replicates too.
	req, _ := http.NewRequest(http.MethodDelete, nodes[1].url+"/v1/indexes/orders/key", nil)
	resp2, err := nodes[1].ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp2.StatusCode)
	}
	for _, cn := range nodes {
		if cn.store.Len() != 0 {
			t.Errorf("%s store len = %d after replicated DELETE", cn.id, cn.store.Len())
		}
	}
}

func TestClusterSnapshotRoute(t *testing.T) {
	nodes := startCluster(t, 2, 2)
	st := fitStats(t, "orders", "key", 1)
	putIndex(t, nodes[0], st)

	resp, err := nodes[0].ts.Client().Get(nodes[0].url + cluster.PathSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.HeaderNode); got != "node-a" {
		t.Errorf("snapshot node header = %q", got)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The stream is the trailered on-disk format and imports bit-exactly
	// into a fresh store.
	if !strings.Contains(string(data), "#epfis-catalog v1 ") {
		t.Fatal("snapshot stream lacks the checksum trailer")
	}
	fresh := catalog.NewStore()
	if _, err := fresh.ImportSnapshot(data); err != nil {
		t.Fatalf("ImportSnapshot: %v", err)
	}
	got, err := fresh.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	if got.FMin != st.FMin || len(got.Curve.Knots) != len(st.Curve.Knots) {
		t.Errorf("imported entry diverges: %+v", got)
	}
}

func TestClusterClientEndToEnd(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	indexes := []*stats.IndexStats{
		fitStats(t, "orders", "key", 1),
		fitStats(t, "lineitem", "partkey", 7),
		fitStats(t, "customer", "nationkey", 11),
	}
	for _, st := range indexes {
		putIndex(t, nodes[0], st)
	}

	cc, err := NewClusterClient(ClusterClientConfig{
		Seeds: []string{nodes[1].url},
		Retry: resilience.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cc.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	for _, st := range indexes {
		want, err := core.EstimateFetches(st, 250, 0.3, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Estimate(ctx, EstimateRequest{Table: st.Table, Column: st.Column, B: 250, Sigma: 0.3})
		if err != nil {
			t.Fatalf("Estimate(%s.%s): %v", st.Table, st.Column, err)
		}
		if got.Fetches != want {
			t.Errorf("Estimate(%s.%s) = %v, want %v", st.Table, st.Column, got.Fetches, want)
		}
	}

	// A batch spanning every index goes whole to one node and answers in
	// order.
	var req BatchRequest
	for _, st := range indexes {
		for _, b := range []int64{12, 100, 1000} {
			req.Requests = append(req.Requests, EstimateRequest{Table: st.Table, Column: st.Column, B: b, Sigma: 0.2})
		}
	}
	resp, err := cc.EstimateBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 || resp.Count != len(req.Requests) {
		t.Fatalf("batch = count %d failed %d", resp.Count, resp.Failed)
	}
	for i, r := range req.Requests {
		st := indexes[i/3]
		want, err := core.EstimateFetches(st, r.B, r.Sigma, 1)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Items[i].Estimate == nil || resp.Items[i].Estimate.Fetches != want {
			t.Errorf("batch item %d (%s.%s B=%d) = %+v, want %v", i, r.Table, r.Column, r.B, resp.Items[i], want)
		}
	}
}

// honestOrFail asserts an estimate error is an "honest" one: a retryable
// status, a breaker rejection, or transport trouble — never a
// definitive-looking wrong answer like 200 with a bad number, 400, or 404.
func honestOrFail(t *testing.T, err error) {
	t.Helper()
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
			return
		default:
			t.Errorf("dishonest error status %d during chaos: %v", se.Code, err)
		}
		return
	}
	// Transport errors and open breakers are honest: the caller knows to retry.
}

// TestClusterChaosKillNodeUnderLoad is the acceptance chaos drill: 3 nodes at
// R=2 serve concurrent reads through the cluster client while one node is
// killed mid-load. Every successful answer must be bit-exact against the
// direct Est-IO computation; every failure must be an honest, retryable
// error. Afterwards the killed node restarts EMPTY (fresh store, new port)
// and must recover the catalog via snapshot streaming from its peers.
func TestClusterChaosKillNodeUnderLoad(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	indexes := []*stats.IndexStats{
		fitStats(t, "orders", "key", 1),
		fitStats(t, "lineitem", "partkey", 7),
		fitStats(t, "customer", "nationkey", 11),
	}
	for _, st := range indexes {
		putIndex(t, nodes[0], st)
	}

	// Precompute the bit-exact expectations for the load mix.
	bs := []int64{12, 50, 100, 500, 5000}
	want := map[string]float64{}
	for _, st := range indexes {
		for _, b := range bs {
			f, err := core.EstimateFetches(st, b, 0.1, 1)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s.%s/%d", st.Table, st.Column, b)] = f
		}
	}

	// Background gossip keeps membership fresh while the victim dies.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cn := range nodes {
		go cn.node.Run(ctx)
	}

	cc, err := NewClusterClient(ClusterClientConfig{
		Seeds:           []string{nodes[0].url, nodes[1].url},
		Retry:           resilience.RetryPolicy{MaxAttempts: 1},
		HedgeAfter:      10 * time.Millisecond,
		BreakerFailures: 3,
		BreakerCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	var okCount, errCount atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := indexes[rng.Intn(len(indexes))]
				b := bs[rng.Intn(len(bs))]
				resp, err := cc.Estimate(ctx, EstimateRequest{Table: st.Table, Column: st.Column, B: b, Sigma: 0.1})
				if err != nil {
					errCount.Add(1)
					honestOrFail(t, err)
					continue
				}
				okCount.Add(1)
				if w := want[fmt.Sprintf("%s.%s/%d", st.Table, st.Column, b)]; resp.Fetches != w {
					t.Errorf("WRONG NUMBER under chaos: %s.%s B=%d = %v, want %v",
						st.Table, st.Column, b, resp.Fetches, w)
				}
			}
		}(g)
	}

	// Let the load warm up, then kill one node abruptly mid-flight.
	time.Sleep(150 * time.Millisecond)
	victim := nodes[2]
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if okCount.Load() == 0 {
		t.Fatal("no successful estimates during the chaos window")
	}
	t.Logf("chaos load: %d ok, %d honest errors", okCount.Load(), errCount.Load())

	// After the kill settles, the survivors still answer every key bit-exactly.
	for _, st := range indexes {
		resp, err := cc.Estimate(ctx, EstimateRequest{Table: st.Table, Column: st.Column, B: 100, Sigma: 0.1})
		if err != nil {
			t.Fatalf("post-kill Estimate(%s.%s): %v", st.Table, st.Column, err)
		}
		if w := want[fmt.Sprintf("%s.%s/100", st.Table, st.Column)]; resp.Fetches != w {
			t.Errorf("post-kill %s.%s = %v, want %v", st.Table, st.Column, resp.Fetches, w)
		}
	}

	// Raw GETs from each survivor, not routed by the client: every survivor
	// answers every key itself, from its own replica, whether it owns the
	// key or not.
	rawEstimate := func(cn *cnode, st *stats.IndexStats) {
		t.Helper()
		key := st.Table + "." + st.Column
		resp, err := cn.ts.Client().Get(fmt.Sprintf("%s/v1/estimate?table=%s&column=%s&b=100&sigma=0.1",
			cn.url, st.Table, st.Column))
		if err != nil {
			t.Fatalf("GET %s via %s: %v", key, cn.id, err)
		}
		defer resp.Body.Close()
		var got EstimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s via %s: status %d, decode %v", key, cn.id, resp.StatusCode, err)
		}
		if by := resp.Header.Get(cluster.HeaderNode); by != cn.id {
			t.Errorf("GET %s via %s answered by %q", key, cn.id, by)
		}
		if w := want[key+"/100"]; got.Fetches != w {
			t.Errorf("GET %s via %s = %v, want %v", key, cn.id, got.Fetches, w)
		}
	}
	nonOwned := 0
	for _, cn := range nodes[:2] {
		for _, st := range indexes {
			if !cn.node.Owns(st.Table + "." + st.Column) {
				nonOwned++
			}
			rawEstimate(cn, st)
		}
	}
	if nonOwned == 0 {
		t.Fatal("no survivor read a key it does not own")
	}

	// Restart the victim with a FRESH store on a new port — same ring
	// identity. It must recover the catalog from a peer via snapshot
	// streaming (not from disk) and then serve bit-exactly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reborn := startClusterNode(t, victim.id, ln, []string{nodes[0].url, nodes[1].url}, 2, catalog.NewStore())
	go reborn.node.Run(ctx)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && reborn.store.Len() != len(indexes) {
		time.Sleep(20 * time.Millisecond)
	}
	if reborn.store.Len() != len(indexes) {
		t.Fatalf("restarted node recovered %d/%d entries via snapshot streaming", reborn.store.Len(), len(indexes))
	}
	if pulls, _ := reborn.node.Pulls(); pulls == 0 {
		t.Error("restarted node did not pull a snapshot")
	}
	if rh, sh := reborn.node.CatalogHash(), nodes[0].node.CatalogHash(); rh != sh {
		t.Errorf("restarted node content hash %q, peers have %q", rh, sh)
	}

	// Direct reads from the reborn node are bit-exact for every key, owned
	// or not.
	for _, st := range indexes {
		rawEstimate(reborn, st)
	}
}
