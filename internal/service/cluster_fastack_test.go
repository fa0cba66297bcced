package service

// Straggler-peer drill for the quorum fast-ack path: a client PUT must
// return as soon as W owner acks land, not when the slowest replica
// answers, and the slow peer must still converge — through the detached
// straggler send when it lands, through its next pull when the send fails.

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/faultnet"
)

func TestClusterQuorumFastAckStraggler(t *testing.T) {
	nodes := startFaultCluster(t, 3, 3) // R=3, majority W=2: self + one peer
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Every replication send from a to c crawls: the injected delay is far
	// past the 500ms per-peer replication timeout, so the straggler send is
	// guaranteed to miss.
	a.inj.Add(faultnet.Rule{
		Op:    faultnet.OpRequest,
		Peer:  c.host(),
		Route: cluster.PathPush,
		Count: -1,
		Mode:  faultnet.ModeSlow,
		Delay: 3 * time.Second,
	})

	st := fitStats(t, "orders", "straggler", 7)
	start := time.Now()
	if status, body := rawMutate(t, a.cnode, http.MethodPut,
		"/v1/indexes/orders/straggler", mustMarshal(t, st)); status != http.StatusOK {
		t.Fatalf("PUT with one slow peer = %d, want 200: %s", status, body)
	}
	elapsed := time.Since(start)

	// Fast-ack: the verdict (self + b = 2 acks) must land well before the
	// straggler's 500ms timeout, let alone its 1.5-3s injected delay.
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("quorum PUT took %v with one slow peer, want fast-ack well under the 500ms straggler timeout", elapsed)
	}
	if got := a.srv.cobs.fastAcks.Value(); got == 0 {
		t.Fatalf("fastAcks counter = 0 after straggler PUT, want > 0")
	}

	// b (the fast owner) already holds the entry.
	if _, err := b.store.Get("orders", "straggler"); err != nil {
		t.Fatalf("fast peer missing entry after ack: %v", err)
	}

	// c must converge eventually: once the fault clears, a gossip round
	// between a and c makes c pull the entry.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.inj.Reset()
		a.node.Tick(context.Background())
		if _, err := c.store.Get("orders", "straggler"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow peer never received the straggler entry via detached send or pull")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if hc, ha := c.node.CatalogHash(), a.node.CatalogHash(); hc != ha {
		t.Fatalf("slow peer hash %s != originator hash %s after the pull", hc, ha)
	}
}

// TestClusterQuorumFastAckSlowNonOwner gates fast-ack on the path every PUT
// takes at R = 2 of 3 nodes: the non-owner's copy detaches once both owners
// hold the write, so a 40 ms delay on every send to the non-owner must
// leave the median client PUT latency within maxSlowdown of the no-fault
// median. No-fault and slowed PUTs alternate, so load hits both sides.
func TestClusterQuorumFastAckSlowNonOwner(t *testing.T) {
	const (
		rounds      = 15
		maxSlowdown = 2.0
	)
	nodes := startFaultCluster(t, 3, 2)
	a, c := nodes[0], nodes[2]
	col := ""
	for i := 0; col == ""; i++ {
		if k := fmt.Sprintf("k%02d", i); a.node.Owns("orders."+k) && !c.node.Owns("orders."+k) {
			col = k
		}
	}
	st := fitStats(t, "orders", col, 7)
	puts := 0
	put := func() time.Duration {
		puts++
		st.CollectedAt = time.Unix(int64(puts), 0).UTC() // every PUT a real mutation
		body := mustMarshal(t, st)
		start := time.Now()
		if status, resp := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/"+col, body); status != http.StatusOK {
			t.Fatalf("PUT = %d: %s", status, resp)
		}
		return time.Since(start)
	}
	put() // warm connections to both peers
	var nofault, slowed []time.Duration
	for i := 0; i < rounds; i++ {
		nofault = append(nofault, put())
		a.inj.Add(faultnet.Rule{
			Op:    faultnet.OpRequest,
			Peer:  c.host(),
			Route: cluster.PathPush,
			Count: -1,
			Mode:  faultnet.ModeSlow,
			Delay: 40 * time.Millisecond,
		})
		slowed = append(slowed, put())
		a.inj.Reset()
	}
	// Every send, detached ones included, must finish before the cluster
	// is torn down.
	sends := uint64(2 * puts)
	waitFor(t, 5*time.Second, func() bool {
		return a.srv.cobs.replicated.Value()+a.srv.cobs.replFailures.Value() >= sends
	}, "detached replication sends")
	slices.Sort(nofault)
	slices.Sort(slowed)
	base, slow := nofault[rounds/2], slowed[rounds/2]
	t.Logf("median quorum PUT: no-fault %v, non-owner slowed %v", base, slow)
	if float64(slow) > maxSlowdown*float64(base) {
		t.Fatalf("median quorum PUT with a slowed non-owner took %v, %.2fx the no-fault %v; budget %.0fx",
			slow, float64(slow)/float64(base), base, maxSlowdown)
	}
}
