package service

// Delta anti-entropy drills: equivalence with the full snapshot pull across
// random divergence sets (including tombstoned keys), and the wire-cost
// gate — a 1-key divergence must sync for a small fraction of the full
// snapshot stream.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"epfis/internal/cluster"
)

// TestClusterDeltaEquivalence checks that a delta sync and a full snapshot
// pull converge two identically prepared replicas to the byte-identical
// content hash, across randomized divergence sets: mutated entries, freshly
// added entries, deleted entries, and stamp-tracked (tombstoned) keys that
// bulk anti-entropy must leave alone on both paths.
func TestClusterDeltaEquivalence(t *testing.T) {
	const baseEntries = 12
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) + 77))
			nodes := startCluster(t, 3, 3)
			src, deltaPuller, fullPuller := nodes[0], nodes[1], nodes[2]

			// Identical base catalog on every store, installed directly so no
			// replication stamps exist yet.
			cols := make([]string, baseEntries)
			for i := range cols {
				cols[i] = fmt.Sprintf("c%02d", i)
				st := fitStats(t, "t", cols[i], int64(i)+1)
				for _, n := range nodes {
					if _, err := n.store.Put(st); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Diverge the source: mutate two entries, delete two, add one.
			perm := rng.Perm(baseEntries)
			mutated := []string{cols[perm[0]], cols[perm[1]]}
			deleted := []string{cols[perm[2]], cols[perm[3]]}
			for i, c := range mutated {
				if _, err := src.store.Put(fitStats(t, "t", c, int64(100+trial*10+i))); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range deleted {
				if _, _, err := src.store.Delete("t", c); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := src.store.Put(fitStats(t, "t", "fresh", int64(200+trial))); err != nil {
				t.Fatal(err)
			}

			// Tombstones on both pullers: one mutated key and one deleted key
			// are stamp-tracked, so neither sync path may touch them.
			tomb := cluster.Stamp{Epoch: 9, Origin: "tomb"}
			for _, p := range []*cnode{deltaPuller, fullPuller} {
				p.node.RecordKeyStamp("t."+mutated[0], tomb)
				p.node.RecordKeyStamp("t."+deleted[0], tomb)
			}

			ctx := context.Background()
			if err := deltaPuller.node.PullDelta(ctx, src.url); err != nil {
				t.Fatalf("delta pull: %v", err)
			}
			if err := fullPuller.node.PullSnapshot(ctx, src.url); err != nil {
				t.Fatalf("full pull: %v", err)
			}

			hd, _, err := deltaPuller.store.ContentHash()
			if err != nil {
				t.Fatal(err)
			}
			hf, _, err := fullPuller.store.ContentHash()
			if err != nil {
				t.Fatal(err)
			}
			if hd != hf {
				t.Fatalf("delta converged to %s, full pull to %s", hd, hf)
			}

			// Merge semantics spot checks: deletions never propagate through
			// anti-entropy, and the tombstoned mutation kept its base bytes.
			for _, c := range deleted {
				if _, err := deltaPuller.store.Get("t", c); err != nil {
					t.Fatalf("delta pull deleted local-only key t.%s: %v", c, err)
				}
			}
			okPulls, fallbacks := deltaPuller.node.DeltaPulls()
			if okPulls == 0 || fallbacks != 0 {
				t.Fatalf("delta pulls ok=%d fallback=%d, want ok>0 fallback=0", okPulls, fallbacks)
			}
			db, fb := deltaPuller.node.AntiEntropyBytes()
			if db == 0 || fb != 0 {
				t.Fatalf("delta puller bytes delta=%d full=%d, want delta>0 full=0", db, fb)
			}
		})
	}
}

// TestClusterDeltaOneKeyWireCost gates delta anti-entropy: one divergent key
// out of 64 must sync via the digest route, without falling back, for at
// most maxDeltaFraction of the full snapshot stream's bytes.
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
	if _, err := src.store.Put(fitStats(t, "t", "c03", 99)); err != nil {
		t.Fatal(err)
	}

	if err := puller.node.Sync(context.Background(), src.url); err != nil {
		t.Fatal(err)
	}
	_, fallbacks := puller.node.DeltaPulls()
	if fallbacks != 0 {
		t.Fatalf("1-key divergence fell back to a full snapshot pull")
	}
	hs, _, err := src.store.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	hp, _, err := puller.store.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if hs != hp {
		t.Fatalf("puller hash %s != source hash %s after delta sync", hp, hs)
	}

	full, _, err := src.store.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	delta, fullBytes := puller.node.AntiEntropyBytes()
	if fullBytes != 0 {
		t.Fatalf("full-pull bytes = %d, want 0", fullBytes)
	}
	if delta == 0 || float64(delta) > maxDeltaFraction*float64(len(full)) {
		t.Fatalf("delta sync cost %d bytes vs %d-byte full snapshot, want at most %.0f%%",
			delta, len(full), maxDeltaFraction*100)
	}
	t.Logf("delta sync: %d of %d snapshot bytes (%.1f%%)", delta, len(full), 100*float64(delta)/float64(len(full)))
}
