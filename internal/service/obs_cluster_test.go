package service

// Tests for the cluster-wide observability plane: trace propagation on
// cluster hops, cross-node trace stitching (including under partition),
// metrics federation, and continuous accuracy telemetry.

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"epfis/internal/faultnet"
	"epfis/internal/obs"
)

const (
	testTraceID  = "4bf92f3577b34da6a3ce929d0e0e4736"
	testParent   = "00-" + testTraceID + "-00f067aa0ba902b7-01"
	testTraceID2 = "0af7651916cd43dd8448eb211c80319c"
	testParent2  = "00-" + testTraceID2 + "-b7ad6b7169203331-01"
)

// TestProxiedEstimateReparents is the regression for the proxy trace bug,
// driven through the one request a node still proxies: an ingest batch
// posted to a node that does not own its index. The forwarding node must
// echo its own re-parented traceparent (same trace id as the inbound header,
// fresh span) rather than the one the owner's response carried, record a
// forward hop on its ring, and the owner must record the forwarded batch
// under the same trace id.
func TestProxiedEstimateReparents(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	st := fitStats(t, "orders", "key", 1)
	putIndex(t, nodes[0], st)

	owners := nodes[0].node.Owners("orders.key")
	if len(owners) != 1 {
		t.Fatalf("owners = %d, want 1 with replicas=1", len(owners))
	}
	var owner, other *cnode
	for _, cn := range nodes {
		if cn.id == owners[0].ID {
			owner = cn
		} else if other == nil {
			other = cn
		}
	}
	if owner == nil || other == nil {
		t.Fatal("could not split owner and non-owner")
	}

	req, _ := http.NewRequest(http.MethodPost, other.url+"/v1/ingest",
		strings.NewReader(`{"table":"orders","column":"key","pages":[1,2,3]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, testParent)
	resp, err := other.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded ingest via %s = %d, want 202", other.id, resp.StatusCode)
	}
	echo := resp.Header.Get(obs.TraceparentHeader)
	if !strings.HasPrefix(echo, "00-"+testTraceID+"-") {
		t.Fatalf("forwarded response traceparent %q does not keep the inbound trace id", echo)
	}
	if strings.Contains(echo, "00f067aa0ba902b7") {
		t.Fatalf("forwarded response traceparent %q was not re-parented onto a fresh span", echo)
	}

	id, ok := obs.ParseTraceID(testTraceID)
	if !ok {
		t.Fatal("test trace id does not parse")
	}
	var hop bool
	for _, rec := range other.srv.obs.ring.FindByTrace(id) {
		if rec.Kind == obs.HopForward && rec.Peer == owner.id {
			hop = true
		}
	}
	if !hop {
		t.Fatalf("%s recorded no forward hop to %s for the forwarded ingest batch", other.id, owner.id)
	}
	// The owner's ring record lands after its handler returns; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if recs := owner.srv.obs.ring.FindByTrace(id); len(recs) > 0 {
			if recs[0].Route != routeIngest {
				t.Fatalf("owner record route = %q, want %q", recs[0].Route, routeIngest)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner %s never recorded the forwarded ingest batch under trace %s", owner.id, testTraceID)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getStitched fetches and decodes one stitched trace document.
func getStitched(t testing.TB, cn *fnode, traceID string) stitchDoc {
	t.Helper()
	resp, err := cn.ts.Client().Get(cn.url + "/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s via %s = %d", traceID, cn.id, resp.StatusCode)
	}
	var doc stitchDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestStitchAcrossClusterIdentifiesSlowOwner drives the acceptance scenario:
// a quorum PUT against a 3-node cluster with one faultnet-slowed owner must
// yield a stitched trace — queried from a node that did not coordinate the
// write — containing the coordinator's replication hops plus the replicated
// requests as served by the peers, with the slow hop identifiable by peer
// label and duration.
func TestStitchAcrossClusterIdentifiesSlowOwner(t *testing.T) {
	nodes := startFaultCluster(t, 3, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Congest a's replication sends to c: 100–200ms, under the 500ms
	// replication timeout, so the hop succeeds but straggles behind the
	// quorum fast-ack.
	a.inj.Add(faultnet.Rule{
		Op: faultnet.OpRequest, Peer: c.host(), Route: "/v1/indexes/",
		Count: -1, Mode: faultnet.ModeSlow, Delay: 200 * time.Millisecond,
	})

	st := fitStats(t, "orders", "key", 1)
	body := mustMarshal(t, st)
	req, _ := http.NewRequest(http.MethodPut, a.url+"/v1/indexes/orders/key", strings.NewReader(string(body)))
	req.Header.Set(obs.TraceparentHeader, testParent)
	resp, err := a.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quorum PUT = %d, want 200", resp.StatusCode)
	}

	// The slow hop completes detached from the client ack; poll the stitched
	// view from b until both replication hops are visible.
	deadline := time.Now().Add(5 * time.Second)
	for {
		doc := getStitched(t, b, testTraceID)
		var hopB, hopC *traceDoc
		seen := map[string]bool{}
		for i := range doc.Records {
			rec := &doc.Records[i]
			seen[rec.Node] = true
			if rec.Kind == obs.HopReplicate && rec.Node == a.id {
				switch rec.Peer {
				case b.id:
					hopB = rec
				case c.id:
					hopC = rec
				}
			}
		}
		if hopB != nil && hopC != nil {
			if len(seen) < 2 {
				t.Fatalf("stitched trace spans %d nodes, want >= 2: %+v", len(seen), doc.Nodes)
			}
			// The injector floor is Delay/2 = 100ms; the healthy hop runs in
			// single-digit milliseconds.
			if hopC.DurationMicros < 90_000 {
				t.Fatalf("slow hop to %s took %.0fµs, expected >= 90ms of injected congestion", c.id, hopC.DurationMicros)
			}
			if hopC.DurationMicros <= hopB.DurationMicros {
				t.Fatalf("slow hop (%s, %.0fµs) not slower than healthy hop (%s, %.0fµs)",
					c.id, hopC.DurationMicros, b.id, hopB.DurationMicros)
			}
			if len(doc.MissingNodes) != 0 {
				t.Fatalf("healthy stitch reported missing nodes %v", doc.MissingNodes)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched trace never showed both replication hops: b=%v c=%v records=%d",
				hopB != nil, hopC != nil, len(doc.Records))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestStitchPartitionedPeerHonestTimeout stitches while one peer's trace
// endpoint is slowed far past the replication timeout: the stitch must
// return the partial trace promptly and name the unreachable peer in
// missing_nodes instead of hanging.
func TestStitchPartitionedPeerHonestTimeout(t *testing.T) {
	nodes := startFaultCluster(t, 3, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	st := fitStats(t, "orders", "key", 1)
	body := mustMarshal(t, st)
	req, _ := http.NewRequest(http.MethodPut, a.url+"/v1/indexes/orders/key", strings.NewReader(string(body)))
	req.Header.Set(obs.TraceparentHeader, testParent2)
	resp, err := a.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d, want 200", resp.StatusCode)
	}

	// Give b's ring its replicated-PUT record before cutting c off.
	deadline := time.Now().Add(3 * time.Second)
	id, _ := obs.ParseTraceID(testTraceID2)
	for len(b.srv.obs.ring.FindByTrace(id)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica b never recorded the replicated PUT")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Slow a's stitch fan-out to c far past the 500ms replication timeout.
	a.inj.Add(faultnet.Rule{
		Op: faultnet.OpRequest, Peer: c.host(), Route: "/debug/traces",
		Count: -1, Mode: faultnet.ModeSlow, Delay: 3 * time.Second,
	})

	start := time.Now()
	doc := getStitched(t, a, testTraceID2)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("stitch with a partitioned peer took %v, must stay inside the peer timeout", elapsed)
	}
	missing := false
	for _, nodeID := range doc.MissingNodes {
		if nodeID == c.id {
			missing = true
		}
	}
	if !missing {
		t.Fatalf("missing_nodes = %v, want %s listed", doc.MissingNodes, c.id)
	}
	seen := map[string]bool{}
	for _, rec := range doc.Records {
		seen[rec.Node] = true
	}
	if !seen[a.id] || !seen[b.id] {
		t.Fatalf("partial stitch lost reachable nodes: got %v, want %s and %s", doc.Nodes, a.id, b.id)
	}
}

// TestClusterMetricsFederation scrapes the federated endpoint and checks the
// merged exposition is valid, carries per-node labels, and rolls counters up
// so the cluster series equals the per-node sum.
func TestClusterMetricsFederation(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	st := fitStats(t, "orders", "key", 1)
	putIndex(t, nodes[0], st)

	// Serve a few estimates (non-owners proxy; only serving nodes count).
	for _, cn := range nodes {
		resp, err := cn.ts.Client().Get(cn.url + "/v1/estimate?table=orders&column=key&b=64&sigma=0.5")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate via %s = %d", cn.id, resp.StatusCode)
		}
	}

	resp, err := nodes[0].ts.Client().Get(nodes[0].url + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("federated exposition invalid: %v", err)
	}
	byName := map[string]obs.ExpoFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	// Counter rollup: node="cluster" equals the per-node sum, and every node
	// contributed a labelled series.
	est, ok := byName["epfis_estimates_total"]
	if !ok {
		t.Fatal("federated exposition lacks epfis_estimates_total")
	}
	perNode := map[string]float64{}
	var cluster float64
	for _, smp := range est.Samples {
		node, _ := smp.LabelValue("node")
		if node == "cluster" {
			cluster = smp.Value
		} else {
			perNode[node] += smp.Value
		}
	}
	if len(perNode) != 3 {
		t.Fatalf("epfis_estimates_total has %d node series, want 3: %v", len(perNode), perNode)
	}
	var sum float64
	for _, v := range perNode {
		sum += v
	}
	if cluster != sum || cluster < 3 {
		t.Fatalf("cluster rollup = %g, per-node sum = %g (want equal and >= 3)", cluster, sum)
	}

	// Histogram rollup: the request-latency family must carry a merged
	// node="cluster" series whose _count equals the per-node counts.
	lat, ok := byName["epfis_http_request_duration_seconds"]
	if !ok {
		t.Fatal("federated exposition lacks epfis_http_request_duration_seconds")
	}
	var latCluster, latNodes float64
	for _, smp := range lat.Samples {
		if !strings.HasSuffix(smp.Name, "_count") {
			continue
		}
		if node, _ := smp.LabelValue("node"); node == "cluster" {
			latCluster += smp.Value
		} else {
			latNodes += smp.Value
		}
	}
	if latCluster == 0 || latCluster != latNodes {
		t.Fatalf("histogram rollup _count = %g, per-node sum = %g (want equal, nonzero)", latCluster, latNodes)
	}

	// Every node answered the scrape.
	upFam, ok := byName["epfis_federation_peer_up"]
	if !ok {
		t.Fatal("federated exposition lacks epfis_federation_peer_up")
	}
	ups := map[string]float64{}
	for _, smp := range upFam.Samples {
		node, _ := smp.LabelValue("node")
		ups[node] = smp.Value
	}
	for _, cn := range nodes {
		if ups[cn.id] != 1 {
			t.Fatalf("epfis_federation_peer_up[%s] = %g, want 1 (all: %v)", cn.id, ups[cn.id], ups)
		}
	}
}

// TestAccuracyTelemetrySingleNode streams one full scan of the published
// index (zero drift, so no republish) and checks the accuracy surfaces: the
// /debug/accuracy document and the epfis_accuracy_relerr histograms must
// both record the measurement even though nothing was refitted.
func TestAccuracyTelemetrySingleNode(t *testing.T) {
	srv, _, st := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Same dataset and seed as the index newTestServer fitted: zero drift,
	// so nothing republishes, but accuracy must still be recorded.
	ds, meta := ingestDataset(t, st.Table, st.Column, 1)
	gen := srv.store.Generation()
	postIngest(t, ts, meta, ds.Trace(), false, rand.New(rand.NewSource(44)))
	srv.Close() // drain the worker so the scan is evaluated

	if srv.store.Generation() != gen {
		t.Fatalf("zero-drift scan republished (generation %d -> %d)", gen, srv.store.Generation())
	}

	var doc accuracyDoc
	getJSON(t, ts, "/debug/accuracy", http.StatusOK, &doc)
	if doc.Node != "local" {
		t.Fatalf("accuracy node = %q, want local", doc.Node)
	}
	acc, ok := doc.Indexes["orders.key"]
	if !ok {
		t.Fatalf("accuracy doc lacks orders.key: %+v", doc.Indexes)
	}
	if acc.Scans < 1 {
		t.Fatalf("scans = %d, want >= 1", acc.Scans)
	}
	if acc.MaxRelErr >= DefaultDriftThreshold {
		t.Fatalf("max relative error %g crossed the drift threshold on the fitted trace", acc.MaxRelErr)
	}
	if acc.MeanRelErr > acc.MaxRelErr {
		t.Fatalf("mean relative error %g exceeds max %g", acc.MeanRelErr, acc.MaxRelErr)
	}
	if len(acc.Points) == 0 || len(acc.Points) > maxAccuracyPoints {
		t.Fatalf("accuracy points = %d, want 1..%d sampled grid points", len(acc.Points), maxAccuracyPoints)
	}
	if acc.RefsSinceRefit < st.N {
		t.Fatalf("refsSinceRefit = %d, want >= %d (one full scan, no refit)", acc.RefsSinceRefit, st.N)
	}
	if acc.Republishes != 0 {
		t.Fatalf("republishes = %d, want 0", acc.Republishes)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(body); err != nil {
		t.Fatalf("exposition with accuracy metrics invalid: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"epfis_accuracy_relerr_bucket{index=\"orders.key\",stat=\"max\"",
		"epfis_accuracy_relerr_bucket{index=\"orders.key\",stat=\"mean\"",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition lacks %q", want)
		}
	}
}
