package service

// Anti-entropy drills: a delta pull and a fresh node's full pull reach the
// same versions across random divergence sets (tombstones and stamp folds
// included), and the wire-cost gate — a 1-key divergence must sync for a
// small fraction of the trailered catalog's bytes.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"epfis/internal/cluster"
)

// TestClusterDeltaEquivalence checks that a node holding the base catalog
// (a delta pull) and a fresh node (a full pull through the same path) both
// reach the source's versions exactly — entries, stamps and tombstones —
// across randomized divergence sets: mutated entries, a fresh entry,
// deleted entries, and a key rewritten with identical content under a
// later stamp, which the delta puller folds without fetching it.
func TestClusterDeltaEquivalence(t *testing.T) {
	const baseEntries = 12
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) + 77))
			nodes := startCluster(t, 3, 3)
			src, deltaPuller, fresh := nodes[0], nodes[1], nodes[2]

			// Identical base catalog on the source and the delta puller,
			// installed directly so no stamps exist yet; the fresh node
			// holds nothing.
			cols := make([]string, baseEntries)
			for i := range cols {
				cols[i] = fmt.Sprintf("c%02d", i)
				st := fitStats(t, "t", cols[i], int64(i)+1)
				for _, n := range []*cnode{src, deltaPuller} {
					if _, err := n.store.Put(st); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Diverge the source through stamped writes, as the cluster
			// makes them: mutate two, delete two, add one, and rewrite one
			// with its own content.
			stamp := func(e uint64) cluster.Stamp { return cluster.Stamp{Epoch: e, Origin: src.id} }
			perm := rng.Perm(baseEntries)
			mutated := []string{cols[perm[0]], cols[perm[1]]}
			deleted := []string{cols[perm[2]], cols[perm[3]]}
			refolded := cols[perm[4]]
			for i, c := range mutated {
				if _, err := src.store.PutStamped(fitStats(t, "t", c, int64(100+trial*10+i)), stamp(uint64(1+i))); err != nil {
					t.Fatal(err)
				}
			}
			for i, c := range deleted {
				if _, _, err := src.store.DeleteStamped("t", c, stamp(uint64(3+i))); err != nil {
					t.Fatal(err)
				}
			}
			same, err := src.store.Get("t", refolded)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.store.PutStamped(same, stamp(5)); err != nil {
				t.Fatal(err)
			}
			if _, err := src.store.PutStamped(fitStats(t, "t", "fresh", int64(200+trial)), stamp(6)); err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			for _, p := range []*cnode{deltaPuller, fresh} {
				if err := p.node.Sync(ctx, src.url); err != nil {
					t.Fatalf("%s pull: %v", p.id, err)
				}
			}
			want := src.node.CatalogHash()
			for _, p := range []*cnode{deltaPuller, fresh} {
				if got := p.node.CatalogHash(); got != want {
					t.Fatalf("%s reached %s, the source holds %s", p.id, got, want)
				}
				for _, c := range deleted {
					if _, err := p.store.Get("t", c); err == nil {
						t.Fatalf("%s kept deleted key t.%s", p.id, c)
					}
				}
				if got := p.node.KeyStamp("t." + refolded); got != stamp(5) {
					t.Fatalf("%s holds t.%s under %v, want the folded %v", p.id, refolded, got, stamp(5))
				}
			}
			// The delta puller fetched only the three changed entries; the
			// fresh node fetched all eleven.
			if db, fb := deltaPuller.node.AntiEntropyBytes(), fresh.node.AntiEntropyBytes(); db == 0 || 2*db > fb {
				t.Fatalf("delta pull read %d bytes, the full pull %d: want under half", db, fb)
			}
		})
	}
}

// TestClusterDeltaOneKeyWireCost gates anti-entropy's wire cost: one
// divergent key out of 64 must sync for at most maxDeltaFraction of the
// bytes of the whole catalog as a trailered stream.
func TestClusterDeltaOneKeyWireCost(t *testing.T) {
	const (
		entries          = 64
		maxDeltaFraction = 0.10
	)
	nodes := startCluster(t, 2, 2)
	src, puller := nodes[0], nodes[1]
	for i := 0; i < entries; i++ {
		st := fitStats(t, "t", fmt.Sprintf("c%02d", i), int64(i)+1)
		for _, n := range nodes {
			if _, err := n.store.Put(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := src.store.PutStamped(fitStats(t, "t", "c03", 99), cluster.Stamp{Epoch: 1, Origin: src.id}); err != nil {
		t.Fatal(err)
	}

	if err := puller.node.Sync(context.Background(), src.url); err != nil {
		t.Fatal(err)
	}
	if hs, hp := src.node.CatalogHash(), puller.node.CatalogHash(); hs != hp {
		t.Fatalf("puller hash %s != source hash %s after the pull", hp, hs)
	}

	// The denominator: the source's catalog in the trailered checkpoint
	// format, the stream a whole-catalog transfer would cost.
	c, err := src.store.Snapshot().Catalog()
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := c.Save(&payload); err != nil {
		t.Fatal(err)
	}
	full := payload.Len() + len(fmt.Sprintf("#epfis-catalog v1 crc32c=%08x bytes=%d\n",
		crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)), payload.Len()))
	delta := puller.node.AntiEntropyBytes()
	if delta == 0 || float64(delta) > maxDeltaFraction*float64(full) {
		t.Fatalf("pull cost %d bytes vs the %d-byte catalog, want at most %.0f%%",
			delta, full, maxDeltaFraction*100)
	}
	t.Logf("one-key pull: %d of %d catalog bytes (%.1f%%)", delta, full, 100*float64(delta)/float64(full))
}
