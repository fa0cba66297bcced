package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/curvefit"
	"epfis/internal/obs"
	"epfis/internal/stats"
)

// testEntry builds a valid catalog entry (mirrors the catalog tests' helper).
func testEntry(table, column string, fmin int64) *stats.IndexStats {
	return &stats.IndexStats{
		Table: table, Column: column,
		T: 100, N: 1000, I: 100,
		BMin: 12, BMax: 100, FMin: fmin, C: 0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 12, Y: float64(fmin)}, {X: 100, Y: 100},
		}},
		GridPoints:  2,
		CollectedAt: time.Unix(0, 0).UTC(),
	}
}

// storeWith builds an in-memory store holding the given entries.
func storeWith(t *testing.T, entries ...*stats.IndexStats) *catalog.Store {
	t.Helper()
	st := catalog.NewStore()
	for _, e := range entries {
		if _, err := st.Put(e); err != nil {
			t.Fatalf("Put(%s.%s): %v", e.Table, e.Column, err)
		}
	}
	return st
}

// serveNode exposes a node's gossip and anti-entropy routes the way the
// service layer does, so cluster tests can run real HTTP exchanges without
// importing internal/service (which would be an import cycle). entries, when
// not nil, counts the entries requests served.
func serveNode(t *testing.T, n *Node, entries ...*atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathGossip, func(w http.ResponseWriter, r *http.Request) {
		var doc Doc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Merge(doc))
	})
	mux.HandleFunc("GET "+PathDigest, n.HandleDigest)
	mux.HandleFunc("POST "+PathEntries, func(w http.ResponseWriter, r *http.Request) {
		for _, c := range entries {
			c.Add(1)
		}
		n.HandleEntries(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewNodeValidation(t *testing.T) {
	st := catalog.NewStore()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing SelfID", Config{SelfURL: "http://a", Store: st}},
		{"missing SelfURL", Config{SelfID: "a", Store: st}},
		{"missing Store", Config{SelfID: "a", SelfURL: "http://a"}},
		{"replicas too big", Config{SelfID: "a", SelfURL: "http://a", Store: st, Replicas: MaxReplicas + 1}},
		{"replicas negative", Config{SelfID: "a", SelfURL: "http://a", Store: st, Replicas: -1}},
	}
	for _, tc := range cases {
		if _, err := NewNode(tc.cfg); err == nil {
			t.Errorf("%s: NewNode succeeded, want error", tc.name)
		}
	}
	n, err := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: st})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if n.Replicas() != DefaultReplicas {
		t.Errorf("Replicas = %d, want default %d", n.Replicas(), DefaultReplicas)
	}
	if r := n.Ring(); r.Len() != 1 || r.Members()[0] != "a" {
		t.Errorf("initial ring = %v, want [a]", r.Members())
	}
}

func TestNodeEpochSemantics(t *testing.T) {
	empty, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: catalog.NewStore()})
	if empty.Epoch() != 0 {
		t.Errorf("empty node epoch = %d, want 0 (adopts the cluster's catalog)", empty.Epoch())
	}
	// Unstamped statistics leave the clock at 0: pulls key off catalog
	// hashes, not epochs, so peers take them anyway.
	loaded, _ := NewNode(Config{SelfID: "b", SelfURL: "http://b",
		Store: storeWith(t, testEntry("t", "c", 500))})
	if loaded.Epoch() != 0 {
		t.Errorf("loaded node epoch = %d, want 0 (no stamp held)", loaded.Epoch())
	}

	if got, err := loaded.BumpEpoch(); got != 1 || err != nil {
		t.Errorf("BumpEpoch = %d, %v, want 1", got, err)
	}
	loaded.ObserveEpoch(10)
	if loaded.Epoch() != 10 {
		t.Errorf("after ObserveEpoch(10): %d", loaded.Epoch())
	}
	loaded.ObserveEpoch(4) // max-fold: lower epochs are ignored
	if loaded.Epoch() != 10 {
		t.Errorf("ObserveEpoch(4) regressed epoch to %d", loaded.Epoch())
	}

	// The clock never wraps: at the largest epoch no stamp orders after
	// every one seen, so BumpEpoch refuses rather than return 0.
	loaded.ObserveEpoch(math.MaxUint64 - 1)
	if got, err := loaded.BumpEpoch(); got != math.MaxUint64 || err != nil {
		t.Errorf("BumpEpoch below the top = %d, %v, want %d", got, err, uint64(math.MaxUint64))
	}
	if got, err := loaded.BumpEpoch(); !errors.Is(err, ErrClockExhausted) || loaded.Epoch() != math.MaxUint64 {
		t.Errorf("BumpEpoch at the top = %d, %v (epoch %d), want ErrClockExhausted and no wrap", got, err, loaded.Epoch())
	}
}

func TestNodeMergeDiscoversMembersAndRebuildsRing(t *testing.T) {
	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a",
		Store: catalog.NewStore(), Replicas: 2})
	reply := n.Merge(Doc{
		Self: NodeInfo{ID: "b", URL: "http://b", Generation: 2, Epoch: 0, CatalogHash: ""},
		Members: []NodeInfo{
			{ID: "b", URL: "http://b"},
			{ID: "c", URL: "http://c"},
			{ID: "a", URL: "http://a"}, // self in the member list is ignored
		},
	})

	if got := n.Ring().Members(); len(got) != 3 {
		t.Fatalf("ring members after merge = %v, want a,b,c", got)
	}
	if reply.Self.ID != "a" || reply.Replicas != 2 {
		t.Errorf("merge reply self = %+v, replicas = %d", reply.Self, reply.Replicas)
	}
	// The reply's member list carries everyone for onward discovery.
	ids := map[string]bool{}
	for _, m := range reply.Members {
		ids[m.ID] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !ids[want] {
			t.Errorf("merge reply members missing %s: %+v", want, reply.Members)
		}
	}
	// Direct contact marked b alive; c is known but never heard from.
	if p, _ := n.mem.Peer("b"); p.State != StateAlive || p.Generation != 2 {
		t.Errorf("peer b after merge = %+v", p)
	}

	// Owners covers self with a synthesized alive record.
	for _, k := range []string{"t.a", "t.b", "u.c", "v.d"} {
		owners := n.Owners(k)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q) = %v, want 2 entries", k, owners)
		}
		for _, o := range owners {
			if o.ID == "a" && o.URL != "http://a" {
				t.Errorf("self owner entry lost URL: %+v", o)
			}
		}
		if n.Owns(k) != (owners[0].ID == "a" || owners[1].ID == "a") {
			t.Errorf("Owns(%q) disagrees with Owners", k)
		}
	}
}

// TestNodeConcurrentMergesKeepEveryMember merges many peers' gossip at once,
// as concurrent gossip handlers do: the ring must end with every member, not
// with an older member set's ring stored under a newer version.
func TestNodeConcurrentMergesKeepEveryMember(t *testing.T) {
	const peers = 16
	for round := 0; round < 50; round++ {
		n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: catalog.NewStore()})
		var wg sync.WaitGroup
		for i := 0; i < peers; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				n.Merge(Doc{Self: NodeInfo{ID: id, URL: "http://" + id}})
			}("p" + strconv.Itoa(i))
		}
		wg.Wait()
		if got := n.Ring().Len(); got != peers+1 {
			t.Fatalf("round %d: ring has %d members after %d concurrent merges, want %d",
				round, got, peers, peers+1)
		}
	}
}

// TestNodeGossipRoundTripAndSnapshotPull: a fresh node that gossips with a
// peer holding statistics pulls the peer's whole catalog through the one
// pull path, in a single entries request, and then stops pulling.
func TestNodeGossipRoundTripAndSnapshotPull(t *testing.T) {
	// Source node: has statistics, none of them stamped.
	src, err := NewNode(Config{SelfID: "src", SelfURL: "http://src",
		Store: storeWith(t, testEntry("orders", "o_custkey", 500), testEntry("lineitem", "l_partkey", 450))})
	if err != nil {
		t.Fatal(err)
	}
	var entriesCalls atomic.Int64
	srcSrv := serveNode(t, src, &entriesCalls)
	src.cfg.SelfURL = srcSrv.URL // advertise the live listener

	// Recovering node: empty store, seeds point at the source.
	dst, err := NewNode(Config{SelfID: "dst", SelfURL: "http://127.0.0.1:1",
		Store: catalog.NewStore(), Seeds: []string{srcSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}

	dst.Tick(context.Background())
	if dst.Rounds() != 1 {
		t.Errorf("Rounds = %d, want 1", dst.Rounds())
	}
	// Gossip discovered the source...
	if p, ok := dst.mem.Peer("src"); !ok || p.State != StateAlive {
		t.Fatalf("source not discovered alive: %+v ok=%v", p, ok)
	}
	// ...and the hash difference triggered an async pull.
	waitUntil(t, 5*time.Second, "pull", func() bool {
		ok, _ := dst.Pulls()
		return ok == 1
	})
	if dst.store.Len() != 2 {
		t.Fatalf("pulled store has %d entries, want 2", dst.store.Len())
	}
	if got := entriesCalls.Load(); got != 1 {
		t.Errorf("a fresh node fetched its catalog in %d entries requests, want 1", got)
	}
	if dh, sh := dst.CatalogHash(), src.CatalogHash(); dh != sh || dh == "" {
		t.Errorf("catalog hash after pull = %q, want %q", dh, sh)
	}
	// The pulled statistics are bit-exact.
	got, err := dst.store.Get("orders", "o_custkey")
	if err != nil {
		t.Fatalf("Get after pull: %v", err)
	}
	if got.FMin != 500 || got.T != 100 {
		t.Errorf("pulled entry = %+v", got)
	}

	// Converged: another round must not pull again.
	dst.Tick(context.Background())
	waitUntil(t, time.Second, "round settle", func() bool { return dst.Rounds() == 2 })
	time.Sleep(20 * time.Millisecond)
	if ok, _ := dst.Pulls(); ok != 1 {
		t.Errorf("converged node pulled again: %d pulls", ok)
	}
}

// TestNodePullRejectsGarbage: a pull refuses a digest that does not decode
// and an entries stream without a checksum trailer, and leaves the store
// as it was.
func TestNodePullRejectsGarbage(t *testing.T) {
	digest := `{"node":"x","epoch":3,"entries":{"t.x":{"crc":7}}}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathDigest {
			w.Write([]byte(digest))
			return
		}
		w.Write([]byte(`{"entries":[],"covered":1}`))
	}))
	defer srv.Close()
	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: catalog.NewStore()})
	if err := n.Sync(context.Background(), srv.URL); err == nil || !strings.Contains(err.Error(), "checksum trailer") {
		t.Fatalf("Sync over a trailerless entries stream = %v, want a checksum-trailer refusal", err)
	}
	digest = `{"not":"a digest"`
	if err := n.Sync(context.Background(), srv.URL); err == nil {
		t.Fatal("Sync accepted a digest that does not decode")
	}
	if n.store.Len() != 0 || n.store.Generation() != 0 {
		t.Errorf("garbage pull mutated the store: %d entries, generation %d", n.store.Len(), n.store.Generation())
	}
	if _, fail := n.Pulls(); fail != 2 {
		t.Errorf("failed pulls = %d, want 2", fail)
	}
}

// TestNodeEqualEpochDivergencePulls: a peer at the same epoch with a
// different catalog hash is a pull trigger like any other difference, and
// unstamped divergent copies settle on the same winner at both ends.
func TestNodeEqualEpochDivergencePulls(t *testing.T) {
	b, _ := NewNode(Config{SelfID: "b", SelfURL: "http://b",
		Store: storeWith(t, testEntry("t", "x", 600), testEntry("t", "y", 700))})
	bSrv := serveNode(t, b)
	b.cfg.SelfURL = bSrv.URL
	a, _ := NewNode(Config{SelfID: "a", SelfURL: "http://127.0.0.1:1",
		Store: storeWith(t, testEntry("t", "x", 500))})
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs %d and %d, want equal", a.Epoch(), b.Epoch())
	}
	a.Merge(b.HealthDoc())
	waitUntil(t, 5*time.Second, "pull at equal epoch", func() bool {
		ok, _ := a.Pulls()
		return ok == 1
	})
	if _, err := a.store.Get("t", "y"); err != nil {
		t.Fatalf("equal-epoch pull missed t.y: %v", err)
	}
	if err := b.Sync(context.Background(), serveNode(t, a).URL); err != nil {
		t.Fatal(err)
	}
	if ha, hb := a.CatalogHash(), b.CatalogHash(); ha != hb {
		t.Fatalf("after pulls both ways the hashes differ: %s vs %s", ha, hb)
	}
}

func TestNodeMetricsExposition(t *testing.T) {
	src, _ := NewNode(Config{SelfID: "src", SelfURL: "http://src",
		Store: storeWith(t, testEntry("t", "x", 500))})
	srcSrv := serveNode(t, src)

	n, _ := NewNode(Config{SelfID: "n", SelfURL: "http://n",
		Store: catalog.NewStore(), Seeds: []string{srcSrv.URL}})
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	n.Tick(context.Background())

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`epfis_cluster_members 2`,
		`epfis_cluster_peer_up{peer="src"} 1`,
		`epfis_cluster_peer_lag_keys{peer="src"} 0`,
		`epfis_cluster_heartbeat_seconds_count{peer="src"} 1`,
		`epfis_cluster_gossip_rounds_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

func TestNodeHealthDocShape(t *testing.T) {
	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a",
		Store: storeWith(t, testEntry("t", "x", 500)), Replicas: 2, VNodes: 32})
	n.Merge(Doc{Self: NodeInfo{ID: "b", URL: "http://b", Epoch: 5}})
	doc := n.HealthDoc()
	if doc.Self.ID != "a" || doc.Self.Epoch != n.Epoch() || doc.Self.CatalogHash == "" {
		t.Errorf("HealthDoc self = %+v", doc.Self)
	}
	if doc.Replicas != 2 || doc.VNodes != 32 {
		t.Errorf("HealthDoc R/vnodes = %d/%d", doc.Replicas, doc.VNodes)
	}
	if len(doc.Members) != 2 || doc.Members[0].ID != "a" {
		t.Errorf("HealthDoc members = %+v", doc.Members)
	}
	// Round-trips through JSON (the wire format).
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Self != doc.Self {
		t.Errorf("Doc did not round-trip: %+v vs %+v", back.Self, doc.Self)
	}
}

func TestStampOrderingAndRecord(t *testing.T) {
	var zero Stamp
	a1 := Stamp{Epoch: 1, Origin: "node-a"}
	b1 := Stamp{Epoch: 1, Origin: "node-b"}
	a2 := Stamp{Epoch: 2, Origin: "node-a"}
	if !zero.Less(a1) || a1.Less(zero) {
		t.Error("zero stamp must order before any real stamp")
	}
	if !a1.Less(b1) || b1.Less(a1) {
		t.Error("equal epochs must tie-break by origin, identically everywhere")
	}
	if !b1.Less(a2) || a2.Less(b1) {
		t.Error("epoch dominates origin")
	}
	if a1.Less(a1) {
		t.Error("a stamp must not order before itself (idempotent redelivery)")
	}

	// The node reads stamps through to its store, where a merged tombstone
	// of an absent key is recorded and a stamp never regresses.
	store := catalog.NewStore()
	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: store})
	if n.KeyStamp("t.k") != zero {
		t.Error("fresh node tracks no stamps")
	}
	tomb := func(s Stamp) []string {
		t.Helper()
		_, taken, err := store.Merge(map[string]catalog.Incoming{"t.k": {Version: catalog.Version{Stamp: s, Tombstone: true}}})
		if err != nil {
			t.Fatal(err)
		}
		return taken
	}
	if taken := tomb(b1); len(taken) != 1 {
		t.Fatalf("tombstone for an absent key not taken: %v", taken)
	}
	if taken := tomb(a1); len(taken) != 0 { // older by tiebreak: must not regress
		t.Fatalf("older tombstone taken: %v", taken)
	}
	if got := n.KeyStamp("t.k"); got != b1 {
		t.Errorf("KeyStamp after regressing record = %+v, want %+v", got, b1)
	}
	if taken := tomb(a2); len(taken) != 1 {
		t.Fatalf("newer tombstone not taken: %v", taken)
	}
	if got := n.KeyStamp("t.k"); got != a2 {
		t.Errorf("KeyStamp after advancing record = %+v, want %+v", got, a2)
	}
	if n.KeyStamp("t.other") != zero {
		t.Error("KeyStamp must reflect exactly the recorded keys")
	}
	if got := store.Snapshot().Stamps(); len(got) != 1 || got["t.k"] != a2 {
		t.Errorf("Stamps = %+v", got)
	}
	// A node opened over a stamped store starts its clock at the highest
	// stamp, so its next local mutation orders after every one it applied.
	if re, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: store}); re.Epoch() != a2.Epoch {
		t.Errorf("epoch over a stamped store = %d, want %d", re.Epoch(), a2.Epoch)
	}
}
