package service

// The one write path: a peer's version enters a node only through the
// merge, pushed or pulled, and a local write only through applyLocal, whose
// stamps never wrap.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/stats"
)

// TestClusterClockNeverWraps is the regression for a wrapped cluster
// clock. A client PUT to the public route that carried the old replication
// headers with the largest epoch used to fold that epoch into the clock, so
// the next client PUT wrapped to epoch 0: it was acknowledged with a fence
// that does not parse while the store kept the older entry under the older
// stamp. The public routes now serve clients only. An epoch that still
// reaches the clock, through a peer's push, exhausts it: local writes then
// answer a typed 503 and never take a stamp that orders before one held.
func TestClusterClockNeverWraps(t *testing.T) {
	n := startCluster(t, 1, 1)[0]
	v1, v2 := fitStats(t, "orders", "key", 1), fitStats(t, "orders", "key", 2)
	putIndex(t, n, v1)

	req, _ := http.NewRequest(http.MethodPut, n.url+"/v1/indexes/orders/key", bytes.NewReader(mustMarshal(t, v1)))
	req.Header.Set("X-Epfis-Replicated", "x")
	req.Header.Set("X-Epfis-Epoch", strconv.FormatUint(math.MaxUint64, 10))
	resp, err := n.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status, raw := rawMutate(t, n, http.MethodPut, "/v1/indexes/orders/key", mustMarshal(t, v2))
	var ack struct {
		Epoch uint64
		Fence string
	}
	if err := json.Unmarshal([]byte(raw), &ack); status != http.StatusOK || err != nil {
		t.Fatalf("PUT v2 = %d %s", status, raw)
	}
	_, _, st, err := parseFence(ack.Fence)
	if err != nil {
		t.Fatalf("acknowledged fence %q does not parse: %v", ack.Fence, err)
	}
	if held := n.node.KeyStamp("orders.key"); held != st {
		t.Fatalf("store holds orders.key under %v, the ack's fence names %v", held, st)
	}
	want, err := core.EstimateFetches(v2, 100, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodGet, n.url+"/v1/estimate?table=orders&column=key&b=100&sigma=0.1", nil)
	req.Header.Set(cluster.HeaderFence, ack.Fence)
	resp, err = n.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var er EstimateResponse
	err = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || er.Fetches != want {
		t.Fatalf("fenced estimate on the acknowledging node = %d %+v (%v), want 200 with %v", resp.StatusCode, er, err, want)
	}

	// A peer's push still folds its stamp's epoch; the largest one exhausts
	// the clock, and the next local write is refused with nothing committed.
	if status, body := push(t, n, pushBody(t, "orders.other", fitStats(t, "orders", "other", 3),
		cluster.Stamp{Epoch: math.MaxUint64, Origin: "node-z"})); status != http.StatusOK {
		t.Fatalf("push at the largest epoch = %d %s", status, body)
	}
	gen := n.store.Generation()
	status, raw = rawMutate(t, n, http.MethodPut, "/v1/indexes/orders/key", mustMarshal(t, v1))
	if status != http.StatusServiceUnavailable || !strings.Contains(raw, cluster.ErrClockExhausted.Error()) {
		t.Fatalf("PUT on an exhausted clock = %d %s, want 503 naming %v", status, raw, cluster.ErrClockExhausted)
	}
	if n.store.Generation() != gen || n.node.KeyStamp("orders.key") != st {
		t.Fatal("a PUT refused on an exhausted clock committed")
	}
	if status, raw = rawMutate(t, n, http.MethodDelete, "/v1/indexes/orders/key", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("DELETE on an exhausted clock = %d %s, want 503", status, raw)
	}
}

// TestPushAndPullMergeAlike delivers one history of peer versions — entries
// and tombstones, colliding stamps and equal-stamp ties — by push, in two
// different orders, to two nodes, and by pull from the second to a third.
// A version is taken iff it orders after the held one, by stamp and then by
// CRC, so every node must end on each key's last version in that order:
// the same stamps and content, equal catalog hashes, and estimates
// bit-exact with offline Est-IO. No push may move a recorded stamp
// backwards.
func TestPushAndPullMergeAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pushed := startCluster(t, 1, 1)[0]
	source := startCluster(t, 1, 1)[0]
	pulled := startCluster(t, 1, 1)[0]

	type version struct {
		key  string
		body []byte
		in   catalog.Incoming
	}
	var history []version
	for i := 0; i < 48; i++ {
		col := fmt.Sprintf("c%d", rng.Intn(5))
		st := cluster.Stamp{Epoch: uint64(1 + rng.Intn(6)), Origin: []string{"node-x", "node-y"}[rng.Intn(2)]}
		var e *stats.IndexStats
		if rng.Intn(4) > 0 {
			e = fitStats(t, "t", col, int64(1+rng.Intn(3)))
		}
		body := pushBody(t, "t."+col, e, st)
		in, _, err := catalog.DecodeEntries(body)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, version{key: "t." + col, body: body, in: in["t."+col]})
	}
	last := map[string]catalog.Incoming{}
	for _, v := range history {
		if v.in.After(last[v.key].Version) {
			last[v.key] = v.in
		}
	}

	for _, n := range []*cnode{pushed, source} {
		for _, i := range rng.Perm(len(history)) {
			v := history[i]
			before := n.node.KeyStamp(v.key)
			if status, body := push(t, n, v.body); status != http.StatusOK {
				t.Fatalf("push to %s = %d %s", n.url, status, body)
			}
			if after := n.node.KeyStamp(v.key); after.Less(before) {
				t.Fatalf("a push moved %s's stamp back from %v to %v", v.key, before, after)
			}
		}
	}
	if err := pulled.node.Sync(context.Background(), source.url); err != nil {
		t.Fatal(err)
	}

	for _, n := range []*cnode{pushed, source, pulled} {
		snap := n.store.Snapshot()
		for key, want := range last {
			if got := snap.Stamp(key); got != want.Stamp {
				t.Fatalf("%s: %s under %v, want the last version's %v", n.url, key, got, want.Stamp)
			}
			e, ok := snap.Lookup(key)
			if ok == want.Tombstone {
				t.Fatalf("%s: %s present = %v, want tombstone = %v", n.url, key, ok, want.Tombstone)
			}
			if !ok {
				continue
			}
			if !bytes.Equal(mustMarshal(t, e), mustMarshal(t, want.Entry)) {
				t.Fatalf("%s: %s holds other content than its last version", n.url, key)
			}
			table, column, _ := strings.Cut(key, ".")
			fetches, err := core.EstimateFetches(want.Entry, 64, 0.2, 1)
			if err != nil {
				t.Fatal(err)
			}
			var er EstimateResponse
			getJSON(t, n.ts, fmt.Sprintf("/v1/estimate?table=%s&column=%s&b=64&sigma=0.2", table, column), http.StatusOK, &er)
			if er.Fetches != fetches {
				t.Fatalf("%s: %s estimates %v, offline Est-IO %v", n.url, key, er.Fetches, fetches)
			}
		}
	}
	if hp, hq := pushed.node.CatalogHash(), pulled.node.CatalogHash(); hp != hq || hp != source.node.CatalogHash() {
		t.Fatalf("catalog hashes differ: pushed %s, source %s, pulled %s", hp, source.node.CatalogHash(), hq)
	}
}
