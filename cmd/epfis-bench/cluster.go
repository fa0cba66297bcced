package main

// The cluster suite (-suite cluster, BENCH_cluster.json via `make
// bench-cluster`) measures the cluster data plane with an in-process
// multi-node cluster: every node is a real *service.Server wired to a real
// *cluster.Node, but HTTP hops dispatch straight into the target server's
// handler through a pooled in-memory transport instead of sockets. That
// keeps the measurement on the code under test — local cluster-mode
// serving, replication fan-out, digest/entry serving — rather than on
// kernel TCP, and makes allocs/op meaningful (testing.Benchmark counts
// mallocs across all goroutines, so socket serving would drown the signal).
//
// Three gated measurements:
//
//   - cluster/nonowner_estimate vs cluster/owned_estimate: every node
//     answers estimates from its own replica, so a node that does not own
//     the key must allocate no more per estimate than an owner does.
//   - cluster/put_quorum_slow_peer vs cluster/put_quorum_nofault: a quorum
//     PUT with a faultnet-slowed NON-owner peer must ack in at most
//     -max-slowdown-quorum times the no-fault latency — the fast-ack
//     property (pre-fast-ack, the slow peer's full injected delay lands on
//     every client PUT).
//   - delta_sync: a 1-key divergence must converge through the digest
//     route for at most -max-delta-fraction of the full snapshot stream's
//     bytes-on-wire.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/faultnet"
	"epfis/internal/service"
	"epfis/internal/stats"
)

// clusterBudgets is the cluster suite's CI gate. The non-owner estimate's
// gate has no knob: its budget is the owned estimate's allocs/op.
type clusterBudgets struct {
	QuorumSlowdownMax     float64 `json:"quorum_slowdown_max"`
	DeltaBytesFractionMax float64 `json:"delta_bytes_fraction_max"`
}

// deltaSyncReport records the bytes-on-wire comparison for a 1-key
// divergence: the delta path (digest + divergent entries) against the full
// snapshot stream it replaces.
type deltaSyncReport struct {
	Entries            int     `json:"entries"`
	DivergentKeys      int     `json:"divergent_keys"`
	DeltaBytes         uint64  `json:"delta_bytes"`
	FullSnapshotBytes  int     `json:"full_snapshot_bytes"`
	BytesFraction      float64 `json:"bytes_fraction"`
	FellBackToSnapshot bool    `json:"fell_back_to_snapshot"`
}

// clusterReport is the BENCH_cluster.json document.
type clusterReport struct {
	GeneratedAt    string          `json:"generated_at"`
	GoVersion      string          `json:"go_version"`
	NumCPU         int             `json:"num_cpu"`
	GOMAXPROCS     int             `json:"gomaxprocs"`
	Nodes          int             `json:"nodes"`
	Benchmarks     []benchEntry    `json:"benchmarks"`
	QuorumSlowdown float64         `json:"quorum_slowdown"`
	DeltaSync      deltaSyncReport `json:"delta_sync"`
	Budgets        clusterBudgets  `json:"budgets"`
	BudgetsMet     bool            `json:"budgets_met"`
}

// memRecorder is a pooled http.ResponseWriter that captures a handler's
// response for conversion into an *http.Response without allocating a
// recorder, header map, or body buffer per hop.
type memRecorder struct {
	h      http.Header
	status int
	body   []byte
}

func (r *memRecorder) Header() http.Header { return r.h }
func (r *memRecorder) WriteHeader(c int)   { r.status = c }
func (r *memRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// memBody is the pooled ReadCloser a memTransport response reads from;
// Close returns the whole frame (recorder included) to the pool.
type memBody struct {
	t    *memTransport
	rec  *memRecorder
	resp *http.Response
	off  int
}

func (b *memBody) Read(p []byte) (int, error) {
	if b.off >= len(b.rec.body) {
		return 0, io.EOF
	}
	n := copy(p, b.rec.body[b.off:])
	b.off += n
	return n, nil
}

func (b *memBody) Close() error {
	b.t.put(b)
	return nil
}

// memTransport routes requests to in-process handlers by URL host. It is
// the socketless stand-in for the pooled cluster transport: same interface,
// zero kernel involvement.
type memTransport struct {
	handlers map[string]http.Handler
	pool     sync.Pool
}

func newMemTransport() *memTransport {
	t := &memTransport{handlers: map[string]http.Handler{}}
	t.pool.New = func() any {
		b := &memBody{t: t, rec: &memRecorder{h: make(http.Header, 8)}}
		b.resp = &http.Response{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Body: b}
		return b
	}
	return t
}

func (t *memTransport) put(b *memBody) {
	b.off = 0
	b.rec.status = 0
	b.rec.body = b.rec.body[:0]
	for k := range b.rec.h {
		delete(b.rec.h, k)
	}
	t.pool.Put(b)
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("memtransport: unknown host %q", req.URL.Host)
	}
	b := t.pool.Get().(*memBody)
	h.ServeHTTP(b.rec, req)
	if b.rec.status == 0 {
		b.rec.status = http.StatusOK
	}
	resp := b.resp
	resp.StatusCode = b.rec.status
	resp.Status = http.StatusText(b.rec.status)
	resp.Header = b.rec.h
	resp.ContentLength = int64(len(b.rec.body))
	resp.Request = req
	// http.Client mutates resp.Body (cancelTimerBody) when a client timeout
	// is armed; restore the pooled body so reuse never re-wraps a wrapper.
	resp.Body = b
	return resp, nil
}

// benchNode is one in-process cluster member.
type benchNode struct {
	id   string
	url  string
	host string
	st   *catalog.Store
	node *cluster.Node
	srv  *service.Server
}

// fitClusterEntries fits n synthetic indexes through the real LRU-Fit
// pipeline — the catalog every node starts from.
func fitClusterEntries(n int) ([]*stats.IndexStats, error) {
	out := make([]*stats.IndexStats, n)
	for i := range out {
		col := fmt.Sprintf("c%02d", i)
		cfg := datagen.Config{Name: "bench", Column: col, N: 20_000, I: 500, R: 40, K: 0.2, Seed: int64(i) + 1}
		ds, err := datagen.GenerateDataset(cfg)
		if err != nil {
			return nil, err
		}
		st, err := core.LRUFit(ds.Trace(), core.Meta{Table: "bench", Column: col, T: ds.T, N: cfg.N, I: cfg.I}, core.Options{})
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// startBenchCluster brings up n in-process nodes over mt, seeds every store
// with the same entries, and converges membership through in-process
// gossip. outbound optionally wraps mt for one node's service transport
// (the faultnet seam); nil means every node talks straight through mt.
func startBenchCluster(mt *memTransport, n, replicas int, entries []*stats.IndexStats, outbound map[int]http.RoundTripper) ([]*benchNode, error) {
	nodes := make([]*benchNode, n)
	urls := make([]string, n)
	for i := range nodes {
		urls[i] = fmt.Sprintf("http://node-%c.bench", 'a'+i)
	}
	for i := range nodes {
		id := fmt.Sprintf("node-%c", 'a'+i)
		store := catalog.NewStore()
		for _, e := range entries {
			if _, err := store.Put(e); err != nil {
				return nil, err
			}
		}
		tr := http.RoundTripper(mt)
		if outbound != nil && outbound[i] != nil {
			tr = outbound[i]
		}
		node, err := cluster.NewNode(cluster.Config{
			SelfID:     id,
			SelfURL:    urls[i],
			Seeds:      urls,
			Replicas:   replicas,
			Heartbeat:  time.Hour, // ticks are driven manually
			DeadAfter:  time.Hour,
			Store:      store,
			HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: tr},
		})
		if err != nil {
			return nil, err
		}
		srv, err := service.New(service.Config{
			Store:     store,
			Cluster:   node,
			Transport: tr,
		})
		if err != nil {
			return nil, err
		}
		host := urls[i][len("http://"):]
		mt.handlers[host] = srv
		nodes[i] = &benchNode{id: id, url: urls[i], host: host, st: store, node: node, srv: srv}
	}
	for round := 0; round < 2; round++ {
		for _, bn := range nodes {
			bn.node.Tick(context.Background())
		}
	}
	for _, bn := range nodes {
		if got := bn.node.Ring().Len(); got != n {
			return nil, fmt.Errorf("%s ring has %d members, want %d", bn.id, got, n)
		}
	}
	return nodes, nil
}

// pickColumn finds an entry column the given node owns, or does not own.
func pickColumn(bn *benchNode, entries []*stats.IndexStats, owned bool) string {
	for _, e := range entries {
		if bn.node.Owns(e.Key()) == owned {
			return e.Column
		}
	}
	return ""
}

// pickQuorumKey finds an entry whose owner set includes owner but not
// nonOwner — the shape the slow-peer drill needs.
func pickQuorumKey(nodes []*benchNode, owner, nonOwner int, entries []*stats.IndexStats) string {
	for _, e := range entries {
		if nodes[owner].node.Owns(e.Key()) && !nodes[nonOwner].node.Owns(e.Key()) {
			return e.Column
		}
	}
	return ""
}

// runClusterSuite measures the cluster data plane, writes BENCH_cluster.json
// to out, and enforces the budgets. Returns false on a breach.
func runClusterSuite(out string, budgets clusterBudgets) bool {
	const clusterEntries = 64
	rep := clusterReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Nodes:       3,
		Budgets:     budgets,
	}
	entries, err := fitClusterEntries(clusterEntries)
	if err != nil {
		fatalf("cluster suite: fit entries: %v", err)
	}

	// --- estimates at a non-owner vs an owner: R=1 makes exactly one owner
	// per key, so node-a owns one column and not the other, and answers
	// both from its own replica. ---
	mt := newMemTransport()
	nodes, err := startBenchCluster(mt, 3, 1, entries, nil)
	if err != nil {
		fatalf("cluster suite: %v", err)
	}
	self := nodes[0]
	estimateBench := func(owned bool) testing.BenchmarkResult {
		col := pickColumn(self, entries, owned)
		if col == "" {
			fatalf("cluster suite: node-a owns every key or none at R=1 (ring bug?)")
		}
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/estimate?table=bench&column=%s&b=120&sigma=0.5", col), nil)
		w := &discardWriter{h: make(http.Header, 4)}
		serve := func() {
			w.reset()
			self.srv.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				fatalf("cluster suite: estimate of bench.%s status %d", col, w.status)
			}
		}
		serve()
		if got := w.h.Get(cluster.HeaderNode); got != self.id {
			fatalf("cluster suite: estimate of bench.%s answered by %q, want %s", col, got, self.id)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
	nonOwner, owned := estimateBench(false), estimateBench(true)
	rep.Benchmarks = append(rep.Benchmarks,
		entry("cluster/nonowner_estimate", nonOwner),
		entry("cluster/owned_estimate", owned))

	// --- quorum PUT, no-fault vs one slowed non-owner peer. R=2 over three
	// nodes leaves one non-owner per key; the injector slows only that
	// peer's replication route, so fast-ack must keep the client latency at
	// the no-fault level while the slowed send detaches. ---
	quorumPut := func(slowed bool) (testing.BenchmarkResult, error) {
		qmt := newMemTransport()
		var inj *faultnet.Injector
		outbound := map[int]http.RoundTripper{}
		if slowed {
			inj = faultnet.NewInjector(qmt, 1)
			outbound[0] = inj
		}
		qnodes, err := startBenchCluster(qmt, 3, 2, entries, outbound)
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		origin := qnodes[0]
		// Owners = {node-a, node-b}; node-c is the non-owner straggler.
		key := pickQuorumKey(qnodes, 1, 2, entries)
		if key == "" || !origin.node.Owns("bench."+key) {
			// Any a/b-owned key works; fall back to scanning for one a owns.
			for _, e := range entries {
				if origin.node.Owns(e.Key()) && !qnodes[2].node.Owns(e.Key()) {
					key = e.Column
					break
				}
			}
		}
		if key == "" {
			return testing.BenchmarkResult{}, fmt.Errorf("no key with non-owner node-c")
		}
		if slowed {
			inj.Add(faultnet.Rule{
				Op:    faultnet.OpRequest,
				Peer:  qnodes[2].host,
				Route: "/v1/indexes/",
				Count: -1,
				Mode:  faultnet.ModeSlow,
				Delay: 40 * time.Millisecond,
			})
		}
		var ent *stats.IndexStats
		for _, e := range entries {
			if e.Column == key {
				ent = e
			}
		}
		payload, err := json.Marshal(ent)
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		body := &rewindBody{r: bytes.NewReader(payload)}
		preq := httptest.NewRequest(http.MethodPut, "/v1/indexes/bench/"+key, body)
		pw := &discardWriter{h: make(http.Header, 4)}
		putOnce := func() {
			pw.reset()
			body.r.Seek(0, io.SeekStart)
			preq.Body = body
			origin.srv.ServeHTTP(pw, preq)
			if pw.status != http.StatusOK {
				fatalf("cluster suite: quorum PUT status %d", pw.status)
			}
		}
		putOnce()
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				putOnce()
			}
		})
		return res, nil
	}
	nofault, err := quorumPut(false)
	if err != nil {
		fatalf("cluster suite: %v", err)
	}
	slowed, err := quorumPut(true)
	if err != nil {
		fatalf("cluster suite: %v", err)
	}
	rep.Benchmarks = append(rep.Benchmarks,
		entry("cluster/put_quorum_nofault", nofault),
		entry("cluster/put_quorum_slow_peer", slowed))
	rep.QuorumSlowdown = float64(slowed.T.Nanoseconds()) / float64(slowed.N) /
		(float64(nofault.T.Nanoseconds()) / float64(nofault.N))

	// --- delta anti-entropy bytes-on-wire: 1 divergent key out of 64. ---
	dmt := newMemTransport()
	dnodes, err := startBenchCluster(dmt, 2, 2, entries, nil)
	if err != nil {
		fatalf("cluster suite: %v", err)
	}
	src, puller := dnodes[0], dnodes[1]
	divergent, err := fitClusterEntries(1)
	if err != nil {
		fatalf("cluster suite: %v", err)
	}
	divergent[0].Column = entries[clusterEntries/2].Column
	divergent[0].FMin++ // guarantee different canonical bytes
	if _, err := src.st.Put(divergent[0]); err != nil {
		fatalf("cluster suite: diverge: %v", err)
	}
	fullStream, _, err := src.st.ExportSnapshot()
	if err != nil {
		fatalf("cluster suite: %v", err)
	}
	if err := puller.node.Sync(context.Background(), src.url); err != nil {
		fatalf("cluster suite: delta sync: %v", err)
	}
	hs, _, _ := src.st.ContentHash()
	hp, _, _ := puller.st.ContentHash()
	if hs != hp {
		fatalf("cluster suite: delta sync did not converge (%s vs %s)", hs, hp)
	}
	deltaBytes, fullBytes := puller.node.AntiEntropyBytes()
	_, fallbacks := puller.node.DeltaPulls()
	rep.DeltaSync = deltaSyncReport{
		Entries:            clusterEntries,
		DivergentKeys:      1,
		DeltaBytes:         deltaBytes,
		FullSnapshotBytes:  len(fullStream),
		BytesFraction:      float64(deltaBytes) / float64(len(fullStream)),
		FellBackToSnapshot: fallbacks > 0 || fullBytes > 0,
	}

	// --- Budget gate. ---
	rep.BudgetsMet = true
	if nonOwner.AllocsPerOp() > owned.AllocsPerOp() {
		rep.BudgetsMet = false
		fmt.Fprintf(os.Stderr, "epfis-bench: cluster/nonowner_estimate allocates %d/op, more than cluster/owned_estimate's %d\n",
			nonOwner.AllocsPerOp(), owned.AllocsPerOp())
	}
	if rep.QuorumSlowdown > budgets.QuorumSlowdownMax {
		rep.BudgetsMet = false
		fmt.Fprintf(os.Stderr, "epfis-bench: quorum PUT with slow peer is %.2fx no-fault latency, budget %.1fx\n",
			rep.QuorumSlowdown, budgets.QuorumSlowdownMax)
	}
	if rep.DeltaSync.FellBackToSnapshot {
		rep.BudgetsMet = false
		fmt.Fprintf(os.Stderr, "epfis-bench: 1-key delta sync fell back to a full snapshot pull\n")
	}
	if rep.DeltaSync.BytesFraction > budgets.DeltaBytesFractionMax {
		rep.BudgetsMet = false
		fmt.Fprintf(os.Stderr, "epfis-bench: delta sync moved %.1f%% of the snapshot bytes, budget %.0f%%\n",
			rep.DeltaSync.BytesFraction*100, budgets.DeltaBytesFractionMax*100)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatalf("write %s: %v", out, err)
	}

	fmt.Printf("epfis-bench: wrote %s\n", out)
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-36s %12.0f ns/op %8d allocs/op %12d B/op\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}
	fmt.Printf("  quorum slowdown with slow non-owner peer: %.2fx (budget %.1fx)\n",
		rep.QuorumSlowdown, budgets.QuorumSlowdownMax)
	d := rep.DeltaSync
	fmt.Printf("  delta sync: %d bytes vs %d-byte snapshot (%.1f%%, budget %.0f%%), fallback=%v\n",
		d.DeltaBytes, d.FullSnapshotBytes, d.BytesFraction*100, budgets.DeltaBytesFractionMax*100, d.FellBackToSnapshot)
	fmt.Printf("  budgets met: %v (num_cpu=%d)\n", rep.BudgetsMet, rep.NumCPU)
	return rep.BudgetsMet
}
