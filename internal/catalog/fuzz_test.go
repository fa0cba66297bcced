package catalog

import (
	"os"
	"path/filepath"
	"testing"

	"epfis/internal/faultfs"
)

// FuzzOpenCatalogStore hardens store recovery against arbitrary checkpoint
// file contents: truncations, bit flips, spliced trailers, zero-length
// files. Invariants:
//
//   - OpenWAL never panics: it recovers or rejects.
//   - With a verified previous checkpoint retained on disk, OpenWAL ALWAYS
//     succeeds — either the main bytes verify, or recovery serves .prev.
//   - Whatever OpenWAL accepts is a working store: readable and writable.
func FuzzOpenCatalogStore(f *testing.F) {
	// Seed with a genuine checkpoint and characteristic damage shapes.
	seedPath := filepath.Join(f.TempDir(), "seed.json")
	st, err := OpenWAL(seedPath, WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		f.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	st.Close()
	good, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])       // truncated
	f.Add(good[:0])                 // zero-length
	f.Add([]byte(`not json`))       // garbage
	f.Add([]byte(`{"version":1,`))  // cut JSON
	f.Add([]byte(`{"version":99}`)) // future format
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Case 1: no backup — OpenWAL recovers or rejects, never panics.
		path := filepath.Join(t.TempDir(), "catalog.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := OpenWAL(path, WALOptions{}); err == nil {
			exercise(t, st)
		}

		// Case 2: a good previous checkpoint is retained. OpenWAL must
		// succeed — from the main bytes when they verify, from .prev
		// otherwise.
		path = filepath.Join(t.TempDir(), "catalog.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(PrevPath(path), good, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatalf("Open failed despite a good previous generation: %v\nmain bytes: %q", err, data)
		}
		exercise(t, st)
	})
}

// exercise proves an opened store actually works: snapshot reads, a
// committed write, and a checkpoint that verifies.
func exercise(t *testing.T, st *Store) {
	t.Helper()
	defer st.Close()
	snap := st.Snapshot()
	for _, k := range snap.Keys() {
		if _, ok := snap.Lookup(k); !ok {
			t.Fatalf("snapshot key %q does not resolve", k)
		}
	}
	if _, err := st.Put(entry("fuzz", "probe", 700)); err != nil {
		t.Fatalf("Put on opened store: %v", err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on opened store: %v", err)
	}
	c, _, _, err := loadCheckpoint(faultfs.OS(), st.Path())
	if err != nil {
		t.Fatalf("checkpoint written by opened store does not verify: %v", err)
	}
	if _, err := c.Get("fuzz", "probe"); err != nil {
		t.Fatalf("checkpoint lost the committed write: %v", err)
	}
}
