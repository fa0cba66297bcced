package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// testKeys generates n distinct index-style keys.
func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("table%d.col%d", i%97, i)
	}
	return out
}

// TestRingGoldenPlacement pins the placement function. These owner sets must
// never change across releases: every node and every client computes
// placement independently, so a silent hash or walk change would split the
// cluster's notion of ownership.
func TestRingGoldenPlacement(t *testing.T) {
	r := BuildRing([]string{"node-a", "node-b", "node-c"}, 64)
	golden := []struct {
		key    string
		owners []string
	}{
		{"orders.o_custkey", []string{"node-c", "node-b"}},
		{"orders.o_orderdate", []string{"node-b", "node-c"}},
		{"lineitem.l_partkey", []string{"node-a", "node-b"}},
		{"lineitem.l_shipdate", []string{"node-b", "node-c"}},
		{"customer.c_nationkey", []string{"node-c", "node-b"}},
		{"part.p_size", []string{"node-c", "node-a"}},
		{"supplier.s_suppkey", []string{"node-c", "node-b"}},
		{"nation.n_regionkey", []string{"node-b", "node-a"}},
	}
	for _, g := range golden {
		if got := r.Owners(g.key, 2); !reflect.DeepEqual(got, g.owners) {
			t.Errorf("Owners(%q) = %v, want %v", g.key, got, g.owners)
		}
		if got := r.Owners(g.key, 1); len(got) != 1 || got[0] != g.owners[0] {
			t.Errorf("Owners(%q, 1) = %v, want [%s]", g.key, got, g.owners[0])
		}
		for _, m := range r.Members() {
			want := m == g.owners[0] || m == g.owners[1]
			if got := r.Owns(m, g.key, 2); got != want {
				t.Errorf("Owns(%s, %q) = %v, want %v", m, g.key, got, want)
			}
		}
	}
}

// TestRingDeterministicAcrossPermutations: any permutation (and duplication)
// of the same member set builds an identical ring.
func TestRingDeterministicAcrossPermutations(t *testing.T) {
	base := []string{"n1", "n2", "n3", "n4", "n5"}
	ref := BuildRing(base, 64)
	keys := testKeys(500)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		perm := append([]string(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		perm = append(perm, perm[rng.Intn(len(perm))]) // duplicates are deduped
		r := BuildRing(perm, 64)
		for _, k := range keys {
			if got, want := r.Owners(k, 3), ref.Owners(k, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Owners(%q) = %v, want %v", trial, k, got, want)
			}
		}
	}
}

// TestRingReplicaSetShape: owner sets are distinct members, capped by the
// member count, primary-first consistent with Primary.
func TestRingReplicaSetShape(t *testing.T) {
	r := BuildRing([]string{"a", "b", "c"}, 32)
	for _, k := range testKeys(200) {
		owners := r.Owners(k, 5) // n > members: capped at 3
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 5) has %d entries, want 3", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats %q", k, o)
			}
			seen[o] = true
		}
		if primary := r.Owners(k, 1)[0]; owners[0] != primary {
			t.Fatalf("Owners(%q)[0] = %q != Owners(%q, 1)[0] %q", k, owners[0], k, primary)
		}
	}
	empty := BuildRing(nil, 16)
	if got := empty.Owners("x.y", 2); len(got) != 0 {
		t.Errorf("empty ring Owners = %v", got)
	}
	if got := empty.Owners("x.y", 1); len(got) != 0 {
		t.Errorf("empty ring Owners(_, 1) = %v", got)
	}
}

// TestRingRemovalMovesOnlyOwnedKeys checks the exact stability invariant:
// removing member m changes the owner set only for keys m owned.
func TestRingRemovalMovesOnlyOwnedKeys(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4", "n5"}
	const R = 2
	before := BuildRing(members, 64)
	keys := testKeys(2000)
	for _, removed := range members {
		var rest []string
		for _, m := range members {
			if m != removed {
				rest = append(rest, m)
			}
		}
		after := BuildRing(rest, 64)
		for _, k := range keys {
			ob, oa := before.Owners(k, R), after.Owners(k, R)
			if !before.Owns(removed, k, R) {
				if !reflect.DeepEqual(ob, oa) {
					t.Fatalf("removing %s moved un-owned key %q: %v -> %v", removed, k, ob, oa)
				}
				continue
			}
			// A key the removed member owned keeps its surviving owners (in
			// order) and gains exactly one replacement.
			var survivors []string
			for _, o := range ob {
				if o != removed {
					survivors = append(survivors, o)
				}
			}
			for i, s := range survivors {
				if oa[i] != s {
					t.Fatalf("removing %s reordered survivors for %q: %v -> %v", removed, k, ob, oa)
				}
			}
		}
	}
}

// TestRingAdditionMovesBoundedFraction checks both the exact invariant
// (adding X changes a key's owner set only by inserting X) and the
// statistical rebalance bound: the moved-key fraction stays near R/(N+1).
func TestRingAdditionMovesBoundedFraction(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4", "n5"}
	const R = 2
	before := BuildRing(members, 64)
	after := BuildRing(append([]string{"n6"}, members...), 64)
	keys := testKeys(20000)
	moved := 0
	for _, k := range keys {
		ob, oa := before.Owners(k, R), after.Owners(k, R)
		if reflect.DeepEqual(ob, oa) {
			continue
		}
		moved++
		// The only permitted change is n6 entering the set: the old owners
		// minus at most one displaced member, order preserved.
		if !after.Owns("n6", k, R) {
			t.Fatalf("key %q moved (%v -> %v) without n6 owning it", k, ob, oa)
		}
		j := 0
		for _, o := range oa {
			if o == "n6" {
				continue
			}
			for j < len(ob) && ob[j] != o {
				j++
			}
			if j == len(ob) {
				t.Fatalf("key %q gained non-new owner: %v -> %v", k, ob, oa)
			}
			j++
		}
	}
	// Expected moved fraction ≈ R/(N+1) = 2/6 ≈ 33%; allow generous slack
	// for vnode variance but fail on gross misbehaviour (e.g. rehashing
	// everything would move ~100%).
	frac := float64(moved) / float64(len(keys))
	if frac > 0.55 {
		t.Errorf("adding one node moved %.1f%% of keys, want ≈%.1f%%",
			frac*100, 100*float64(R)/float64(len(members)+1))
	}
	if frac == 0 {
		t.Error("adding a node moved no keys at all")
	}
}

// TestRingConcurrentLookups hammers one ring from many goroutines while
// other rings are built concurrently — the immutability contract under
// -race.
func TestRingConcurrentLookups(t *testing.T) {
	r := BuildRing([]string{"a", "b", "c", "d"}, 64)
	keys := testKeys(64)
	want := make([][]string, len(keys))
	for i, k := range keys {
		want[i] = r.Owners(k, 3)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (g + iter) % len(keys)
				if got := r.Owners(keys[i], 3); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent Owners(%q) = %v, want %v", keys[i], got, want[i])
					return
				}
				if !r.Owns(want[i][0], keys[i], 3) {
					t.Errorf("concurrent Owns(%q) lost primary", keys[i])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				BuildRing([]string{"x", "y", "z", fmt.Sprintf("w%d-%d", g, iter)}, 32)
			}
		}(g)
	}
	wg.Wait()
}

// TestRingBalance: with 64 vnodes no member's primary share should be wildly
// off 1/N.
func TestRingBalance(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4", "n5"}
	r := BuildRing(members, 64)
	counts := map[string]int{}
	keys := testKeys(20000)
	for _, k := range keys {
		counts[r.Owners(k, 1)[0]]++
	}
	for _, m := range members {
		frac := float64(counts[m]) / float64(len(keys))
		if frac < 0.08 || frac > 0.40 {
			t.Errorf("member %s primary share %.1f%%, want ≈20%%", m, frac*100)
		}
	}
}
