package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"epfis/internal/catalog"
	"epfis/internal/stats"
)

// TestPinnedFixtureBytes pins what one fixed history of writes puts on disk
// and on the wire: the catalog hash gossip carries, the digest document, a
// one-key entry stream (a push body), the log and, after a checkpoint, the
// checkpoint file and the rotated log. The history covers every way a key's
// version changes: an unstamped and a stamped put, a stamped delete, a
// peer's tombstone for an absent key, a merged entry, a stamp fold, a
// recorded stamp, an unstamped put over a stamped key, a ReplaceAll that
// drops stamped keys and the adoption at open of a file without an lsn. A
// change to how the store holds versions must leave every byte as it is,
// and a reopen from the files must report the hash.
func TestPinnedFixtureBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	st, err := catalog.OpenWAL(path, catalog.WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = st.Put(testEntry("t", "a", 500))
	must(err)
	_, err = st.PutStamped(testEntry("t", "b", 510), Stamp{Epoch: 3, Origin: "node-a"})
	must(err)
	_, err = st.PutStamped(testEntry("t", "c", 520), Stamp{Epoch: 4, Origin: "node-b"})
	must(err)
	_, _, err = st.DeleteStamped("t", "c", Stamp{Epoch: 6, Origin: "node-a"})
	must(err)
	src := catalog.NewStore()
	_, err = src.PutStamped(testEntry("t", "e", 530), Stamp{Epoch: 5, Origin: "node-c"})
	must(err)
	stream, _, err := src.ExportEntries([]string{"t.e"}, 0)
	must(err)
	in, _, err := catalog.DecodeEntries(stream)
	must(err)
	in["t.d"] = catalog.Incoming{Version: catalog.Version{Stamp: Stamp{Epoch: 5, Origin: "node-c"}, Tombstone: true}}
	_, _, err = st.Merge(in)
	must(err)
	held, _, err := st.Versions()
	must(err)
	_, _, err = st.Merge(map[string]catalog.Incoming{"t.b": {Version: catalog.Version{Stamp: Stamp{Epoch: 7, Origin: "node-c"}, CRC: held["t.b"].CRC}}})
	must(err)
	_, err = st.RecordStamps(map[string]Stamp{"t.a": {Epoch: 8, Origin: "node-a"}})
	must(err)
	_, err = st.Put(testEntry("t", "e", 540))
	must(err)

	n, err := NewNode(Config{SelfID: "node-a", SelfURL: "http://node-a", Store: st})
	must(err)
	doc, err := n.digest()
	must(err)
	digest, err := json.Marshal(doc)
	must(err)
	hash := n.CatalogHash()
	push, _, err := st.ExportEntries([]string{"t.b"}, 0)
	must(err)
	log, err := os.ReadFile(st.WALPath())
	must(err)
	must(st.Checkpoint())
	checkpoint, err := os.ReadFile(path)
	must(err)
	rotated, err := os.ReadFile(st.WALPath())
	must(err)
	// ReplaceAll keeps the stamps: the stamped keys it drops read as
	// tombstones, and the one key it keeps holds its stamp.
	c := stats.NewCatalog()
	must(c.Put(testEntry("t", "a", 500)))
	must(c.Put(testEntry("t", "f", 550)))
	_, err = st.ReplaceAll(c)
	must(err)
	n2, err := NewNode(Config{SelfID: "node-a", SelfURL: "http://node-a", Store: st})
	must(err)
	replaced, err := os.ReadFile(st.WALPath())
	must(err)
	re, err := catalog.OpenWAL(path, catalog.WALOptions{CheckpointEvery: -1})
	must(err)
	n3, err := NewNode(Config{SelfID: "node-a", SelfURL: "http://node-a", Store: re})
	must(err)
	must(re.Close())
	// An out-of-band file that changes t.f, adopted at open.
	must(c.Put(testEntry("t", "f", 560)))
	must(c.SaveFile(path))
	ad, err := catalog.OpenWAL(path, catalog.WALOptions{CheckpointEvery: -1})
	must(err)
	defer ad.Close()
	adopted, err := os.ReadFile(ad.WALPath())
	must(err)

	// Each file and stream is pinned by the first 8 bytes of its SHA-256.
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:8]) }
	for _, c := range []struct{ what, got, want string }{
		{"catalog hash", hash, "crc32c:5d4730b0"},
		{"digest", sum(digest), "0fa7c9bfda2bf302"},
		{"one-key entry stream", sum(push), "6529f9fc11a43815"},
		{"log", sum(log), "9a53bb5f17229c23"},
		{"checkpoint", sum(checkpoint), "e6ff1890bc05e9d9"},
		{"rotated log", sum(rotated), "5ea6e4e4e2fde1ce"},
		{"catalog hash after ReplaceAll", n2.CatalogHash(), "crc32c:f23dafa1"},
		{"log after ReplaceAll", sum(replaced), "4bfb41cd6620e91e"},
		{"catalog hash reopened", n3.CatalogHash(), n2.CatalogHash()},
		{"log after an adoption at open", sum(adopted), "65c95ae7350a5996"},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s, pinned %s", c.what, c.got, c.want)
		}
	}
	if t.Failed() {
		t.Logf("digest: %s\nentry stream: %s", digest, push)
	}
}
