package service

// Pull-path drills at the service layer: what a merge does to the serving
// side, and refreshes (a reload, a file adopted at open) as cluster writes.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/stats"
)

// TestPulledKeyGetsIndexCounter: a key a node learns from a peer's pull is
// served like one it was PUT: its estimates are counted per index, and the
// memo cache drops the generations the merge superseded.
func TestPulledKeyGetsIndexCounter(t *testing.T) {
	nodes := startCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]
	putIndex(t, a, fitStats(t, "orders", "key", 1))
	var warm EstimateResponse
	getJSON(t, a.ts, "/v1/estimate?table=orders&column=key&b=100&sigma=0.1", http.StatusOK, &warm)
	if a.srv.cache.len() == 0 {
		t.Fatal("the warm-up estimate was not memoized")
	}

	if _, err := b.store.Put(fitStats(t, "orders", "pulled", 2)); err != nil {
		t.Fatal(err)
	}
	if err := a.node.Sync(context.Background(), b.url); err != nil {
		t.Fatal(err)
	}
	if _, err := a.store.Get("orders", "pulled"); err != nil {
		t.Fatalf("the pull missed orders.pulled: %v", err)
	}
	if n := a.srv.cache.len(); n != 0 {
		t.Errorf("memo cache holds %d entries of superseded generations after the merge", n)
	}
	const series = `epfis_index_estimates_total{index="orders.pulled"}`
	if _, ok := promSeries(t, a.srv, "epfis_index_estimates_total")[series]; !ok {
		t.Fatalf("no %s series after the pull", series)
	}
	getJSON(t, a.ts, "/v1/estimate?table=orders&column=pulled&b=100&sigma=0.1", http.StatusOK, nil)
	if got := promSeries(t, a.srv, "epfis_index_estimates_total")[series]; got != 1 {
		t.Errorf("%s = %v after one estimate, want 1", series, got)
	}
}

// reloadFrom writes entries to n's catalog file as an out-of-band refresh
// (no lsn field, as `epfis gen` writes it) and reloads n over HTTP.
func reloadFrom(t *testing.T, n *fnode, entries ...*stats.IndexStats) {
	t.Helper()
	c := stats.NewCatalog()
	for _, e := range entries {
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SaveFile(n.catalogPath); err != nil {
		t.Fatal(err)
	}
	if status, body := rawMutate(t, n.cnode, http.MethodPost, "/v1/reload", nil); status != http.StatusOK {
		t.Fatalf("reload on %s = %d: %s", n.id, status, body)
	}
}

// TestReloadRefreshReachesEveryPeer: a reload that refreshes a key the
// cluster wrote is a write. Its fresh stamp makes every peer take the new
// statistics, bit-exactly, along with a key only the file adds.
func TestReloadRefreshReachesEveryPeer(t *testing.T) {
	nodes := startFaultCluster(t, 3, 3)
	a := nodes[0]
	v1, v2 := fitStats(t, "orders", "key", 1), fitStats(t, "orders", "key", 2)
	other := fitStats(t, "orders", "other", 3)
	putIndex(t, a.cnode, v1)
	for _, n := range nodes {
		waitFor(t, 5*time.Second, func() bool { _, err := n.store.Get("orders", "key"); return err == nil }, n.id+" to hold version 1")
	}

	reloadFrom(t, a, v2, other)
	converge(t, nodes)

	for _, q := range []struct {
		column string
		st     *stats.IndexStats
	}{{"key", v2}, {"other", other}} {
		want, err := core.EstimateFetches(q.st, 100, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			var got EstimateResponse
			getJSON(t, n.ts, fmt.Sprintf("/v1/estimate?table=orders&column=%s&b=100&sigma=0.1", q.column), http.StatusOK, &got)
			if got.Fetches != want {
				t.Errorf("%s: orders.%s = %v after the reload, want %v", n.id, q.column, got.Fetches, want)
			}
		}
	}
}

// TestReloadDropDeletesOnEveryPeer: a reload whose file drops a key deletes
// it across the cluster, leaving the reload's tombstone on every peer.
func TestReloadDropDeletesOnEveryPeer(t *testing.T) {
	nodes := startFaultCluster(t, 3, 3)
	a := nodes[0]
	keep, gone := fitStats(t, "orders", "keep", 1), fitStats(t, "orders", "gone", 2)
	putIndex(t, a.cnode, keep)
	putIndex(t, a.cnode, gone)
	for _, n := range nodes {
		waitFor(t, 5*time.Second, func() bool { return n.store.Len() == 2 }, n.id+" to hold both keys")
	}

	reloadFrom(t, a, keep)
	converge(t, nodes)

	tomb := a.node.KeyStamp("orders.gone")
	for _, n := range nodes {
		if _, err := n.store.Get("orders", "gone"); err == nil {
			t.Errorf("%s still holds the dropped key", n.id)
		}
		if got := n.node.KeyStamp("orders.gone"); got != tomb || got.Origin != a.id {
			t.Errorf("%s: tombstone %v, want the reload's %v", n.id, got, tomb)
		}
		if _, err := n.store.Get("orders", "keep"); err != nil {
			t.Errorf("%s lost the kept key: %v", n.id, err)
		}
	}
}

// TestAdoptionAtOpenReachesEveryPeer: a catalog file rewritten while a node
// was down is adopted at open and stamped before the node serves, so the
// cluster takes it like a reload; keys the file leaves as they were keep
// their stamps.
func TestAdoptionAtOpenReachesEveryPeer(t *testing.T) {
	nodes := startFaultCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]
	v1, v2 := fitStats(t, "orders", "key", 1), fitStats(t, "orders", "key", 2)
	same := fitStats(t, "orders", "same", 3)
	putIndex(t, a.cnode, v1)
	putIndex(t, a.cnode, same)
	sameStamp := a.node.KeyStamp("orders.same")

	// Stop a, copy its files, and rewrite the catalog file out of band.
	a.srv.Close()
	dir := t.TempDir()
	for _, name := range []string{"catalog.json", "catalog.json.prev", "catalog.json.wal", "catalog.json.wal.prev"} {
		data, err := os.ReadFile(filepath.Join(filepath.Dir(a.catalogPath), name))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), data, 0o644)
		}
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	c := stats.NewCatalog()
	for _, e := range []*stats.IndexStats{v2, same} {
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "catalog.json")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	store, err := catalog.OpenWAL(path, catalog.WALOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reborn := restartFrom(t, a, store, b)
	stamp := reborn.node.KeyStamp("orders.key")
	if stamp.Origin != a.id || !b.node.KeyStamp("orders.key").Less(stamp) {
		t.Fatalf("adopted orders.key stamped %v, want a fresh stamp of %s past b's %v", stamp, a.id, b.node.KeyStamp("orders.key"))
	}
	if got := reborn.node.KeyStamp("orders.same"); got != sameStamp {
		t.Fatalf("unchanged orders.same re-stamped %v, want %v", got, sameStamp)
	}

	if err := b.node.Sync(context.Background(), reborn.url); err != nil {
		t.Fatal(err)
	}
	got, err := b.store.Get("orders", "key")
	if err != nil || got.FMin != v2.FMin || got.C != v2.C || b.node.KeyStamp("orders.key") != stamp {
		t.Fatalf("b holds %+v under %v (%v), want the adopted version under %v", got, b.node.KeyStamp("orders.key"), err, stamp)
	}
	if hb, hr := b.node.CatalogHash(), reborn.node.CatalogHash(); hb != hr {
		t.Fatalf("hashes differ after b's pull: %s vs %s", hb, hr)
	}
}
