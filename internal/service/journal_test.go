package service

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/framelog"
)

// soloJournalServer starts a one-node cluster server whose journals live in
// dir, returning the server and its cluster node.
func soloJournalServer(t *testing.T, dir string) (*Server, *cluster.Node) {
	t.Helper()
	store := catalog.NewStore()
	node, err := cluster.NewNode(cluster.Config{SelfID: "node-a", SelfURL: "http://127.0.0.1:1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Cluster: node, HandoffDir: dir, HandoffAbandonAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	return srv, node
}

// TestJournalsReplayCommittedFormat replays testdata/journals: a hint queue
// and a stamp journal written before both moved onto framelog. The frame
// format did not change, so they must load unchanged into the same hint
// queue and stamp table.
func TestJournalsReplayCommittedFormat(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{}
	for _, name := range []string{"node-b.hints", "keystamps.journal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "journals", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	// node-b is never a member and its hints never expire, so the drainer
	// leaves the replayed queue alone.
	srv, node := soloJournalServer(t, dir)
	defer srv.Close()

	wantHints := []hintRecord{
		{Peer: "node-b", Method: http.MethodPut, Path: "/v1/indexes/orders/key",
			Body: []byte(`{"table":"orders","column":"key"}`), Epoch: 3, Key: "orders.key",
			Trace: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{Peer: "node-b", Method: http.MethodDelete, Path: "/v1/indexes/orders/doomed",
			Epoch: 4, Key: "orders.doomed"},
		{Peer: "node-b", Method: http.MethodPut, Path: "/v1/indexes/lineitem/partkey",
			Body: []byte(`{"table":"lineitem","column":"partkey"}`), Epoch: 6, Key: "lineitem.partkey"},
	}
	srv.handoff.mu.Lock()
	gotHints := append([]hintRecord(nil), srv.handoff.queues["node-b"].hints...)
	srv.handoff.mu.Unlock()
	if !reflect.DeepEqual(gotHints, wantHints) {
		t.Fatalf("replayed hints %+v, want %+v", gotHints, wantHints)
	}

	// The journal holds five frames; orders.key's fold keeps its Stamp-max.
	wantStamps := map[string]cluster.Stamp{
		"orders.key":       {Epoch: 5, Origin: "node-b"},
		"orders.doomed":    {Epoch: 4, Origin: "node-a"},
		"lineitem.partkey": {Epoch: 6, Origin: "node-a"},
	}
	if got := node.KeyStamps(); !reflect.DeepEqual(got, wantStamps) {
		t.Fatalf("replayed stamps %v, want %v", got, wantStamps)
	}
	if node.Epoch() < 6 {
		t.Fatalf("node epoch %d after replay, want at least the journaled 6", node.Epoch())
	}
	for name, data := range files {
		if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !reflect.DeepEqual(after, data) {
			t.Fatalf("replay rewrote the intact %s (%v)", name, err)
		}
	}
}

// TestStampJournalCompactsAndReloads drives the stamp journal past its
// compaction threshold: the rewrite must shrink the file to one frame per
// live key, and a restart must reload exactly the live table.
func TestStampJournalCompactsAndReloads(t *testing.T) {
	dir := t.TempDir()
	srv, _ := soloJournalServer(t, dir)
	for e := uint64(1); e <= stampCompactMin; e++ {
		srv.recordStamp("orders.key", cluster.Stamp{Epoch: e, Origin: "node-a"})
	}
	frames := func() int {
		data, err := os.ReadFile(filepath.Join(dir, stampJournalFile))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if framelog.Scan(data, func([]byte) bool { n++; return true }) != int64(len(data)) {
			t.Fatal("stamp journal has a torn tail")
		}
		return n
	}
	if n := frames(); n != 1 {
		t.Fatalf("stamp journal holds %d frames after compaction, want 1", n)
	}
	srv.recordStamp("orders.doomed", cluster.Stamp{Epoch: stampCompactMin + 1, Origin: "node-a"})
	if n := frames(); n != 2 {
		t.Fatalf("stamp journal holds %d frames after one more append, want 2", n)
	}
	srv.Close()

	reborn, node := soloJournalServer(t, dir)
	defer reborn.Close()
	want := map[string]cluster.Stamp{
		"orders.key":    {Epoch: stampCompactMin, Origin: "node-a"},
		"orders.doomed": {Epoch: stampCompactMin + 1, Origin: "node-a"},
	}
	if got := node.KeyStamps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded stamps %v, want %v", got, want)
	}
}
