package catalog

import (
	"os"
	"path/filepath"
	"sort"
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

// FuzzDecodeEntries holds the decoder every pull and every push feeds peer
// bytes to. Every input is rejected or round-trips: an accepted stream,
// merged into an empty store and exported again, decodes to the same
// versions and entries. Nothing panics, and a Merge of any accepted stream
// into a populated store never moves a recorded stamp backwards: each key
// ends on the later of its held and offered versions.
func FuzzDecodeEntries(f *testing.F) {
	src := NewStore()
	if _, err := src.PutStamped(entry("t", "c0", 500), Stamp{Epoch: 3, Origin: "node-a"}); err != nil {
		f.Fatal(err)
	}
	if _, err := src.Put(entry("t", "c1", 600)); err != nil {
		f.Fatal(err)
	}
	if _, _, err := src.Merge(map[string]Incoming{"t.c2": {Version: Version{Stamp: Stamp{Epoch: 5, Origin: "node-b"}, Tombstone: true}}}); err != nil {
		f.Fatal(err)
	}
	good, _, err := src.ExportEntries([]string{"t.c0", "t.c1", "t.c2", "t.c3"}, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"entries":[],"covered":0}`))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	held, _, err := src.Versions()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		in, _, err := DecodeEntries(data)
		if err != nil {
			return
		}
		keys := make([]string, 0, len(in))
		for k := range in {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		fresh := NewStore()
		if _, _, err := fresh.Merge(in); err != nil {
			t.Fatalf("merge of an accepted stream into an empty store: %v", err)
		}
		again, covered, err := fresh.ExportEntries(keys, 1<<30)
		if err != nil || covered != len(keys) {
			t.Fatalf("re-export covered %d of %d keys: %v", covered, len(keys), err)
		}
		back, _, err := DecodeEntries(again)
		if err != nil {
			t.Fatalf("re-exported stream rejected: %v", err)
		}
		if len(back) != len(in) {
			t.Fatalf("round trip holds %d keys, want %d", len(back), len(in))
		}
		for k, v := range in {
			b := back[k]
			if b.Version != v.Version || (v.Entry == nil) != (b.Entry == nil) {
				t.Fatalf("%s: round trip %+v, want %+v", k, b.Version, v.Version)
			}
		}

		st := NewStore()
		if _, err := st.PutStamped(entry("t", "c0", 500), Stamp{Epoch: 3, Origin: "node-a"}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put(entry("t", "c1", 600)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Merge(map[string]Incoming{"t.c2": {Version: held["t.c2"]}}); err != nil {
			t.Fatal(err)
		}
		before, _, err := st.Versions()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Merge(in); err != nil {
			t.Fatalf("merge of an accepted stream: %v", err)
		}
		after, _, err := st.Versions()
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range after {
			if v.Stamp.Less(before[k].Stamp) {
				t.Fatalf("%s: stamp moved back from %v to %v", k, before[k].Stamp, v.Stamp)
			}
			want := before[k]
			if p, ok := in[k]; ok && p.After(want) {
				want = p.Version
			}
			if v != want {
				t.Fatalf("%s: holds %+v, want the later of held and offered, %+v", k, v, want)
			}
		}
	})
}
