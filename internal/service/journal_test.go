package service

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
)

// soloJournalServer starts a one-node cluster server over store whose
// journals live in dir, returning the server and its cluster node.
func soloJournalServer(t *testing.T, store *catalog.Store, dir string) (*Server, *cluster.Node) {
	t.Helper()
	node, err := cluster.NewNode(cluster.Config{SelfID: "node-a", SelfURL: "http://127.0.0.1:1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Cluster: node, HandoffDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv, node
}

// copyJournals copies the named files of testdata/journals into dir and
// returns their bytes.
func copyJournals(t *testing.T, dir string, names ...string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", "journals", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	return files
}

// TestJournalsReplayCommittedFormat opens an in-memory node over a handoff
// directory holding an older release's stamp journal (testdata/journals)
// and a leftover hint journal. The node keeps its stamps in memory like its
// catalog, so it imports nothing; hint journals are left unread, since the
// WAL holds each hinted write and anti-entropy delivers it. Both files stay
// byte for byte as they were.
func TestJournalsReplayCommittedFormat(t *testing.T) {
	dir := t.TempDir()
	files := copyJournals(t, dir, legacyStampJournal)
	files["node-b.hints"] = []byte("a hint journal an older release left behind\n")
	if err := os.WriteFile(filepath.Join(dir, "node-b.hints"), files["node-b.hints"], 0o644); err != nil {
		t.Fatal(err)
	}
	store := catalog.NewStore()
	srv, _ := soloJournalServer(t, store, dir)
	defer srv.Close()

	if got := store.Snapshot().Stamps(); len(got) != 0 {
		t.Fatalf("in-memory node imported stamps %v", got)
	}
	for name, data := range files {
		if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !reflect.DeepEqual(after, data) {
			t.Fatalf("opening the node rewrote %s (%v)", name, err)
		}
	}
}

// TestStampJournalImportedOnce opens a WAL-backed node over a HandoffDir
// holding an older release's stamp journal (testdata/journals): the node
// imports it into the store's log, folds its highest epoch into the clock,
// and removes the file. A reopen from the files alone keeps every stamp.
func TestStampJournalImportedOnce(t *testing.T) {
	dir := t.TempDir()
	hints := filepath.Join(dir, "hints")
	if err := os.Mkdir(hints, 0o755); err != nil {
		t.Fatal(err)
	}
	copyJournals(t, hints, legacyStampJournal)
	catalogPath := filepath.Join(dir, "catalog.json")
	store, err := catalog.OpenWAL(catalogPath, catalog.WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, node := soloJournalServer(t, store, hints)

	// The journal holds five frames; orders.key's fold keeps its Stamp-max.
	want := map[string]cluster.Stamp{
		"orders.key":       {Epoch: 5, Origin: "node-b"},
		"orders.doomed":    {Epoch: 4, Origin: "node-a"},
		"lineitem.partkey": {Epoch: 6, Origin: "node-a"},
	}
	if got := store.Snapshot().Stamps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported stamps %v, want %v", got, want)
	}
	if node.Epoch() < 6 {
		t.Fatalf("node epoch %d after import, want at least the journaled 6", node.Epoch())
	}
	if _, err := os.Stat(filepath.Join(hints, legacyStampJournal)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("imported stamp journal not retired (%v)", err)
	}
	srv.Close()

	// No Close of the store: the stamps must already be durable in its log.
	re, err := catalog.OpenWAL(catalogPath, catalog.WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reborn, renode := soloJournalServer(t, re, hints)
	defer reborn.Close()
	if got := re.Snapshot().Stamps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stamps after reopen %v, want %v", got, want)
	}
	if renode.Epoch() < 6 {
		t.Fatalf("reopened node epoch %d, want at least 6", renode.Epoch())
	}
}
