package catalog

// Entry export, merge and version coverage — the catalog primitives under
// anti-entropy.

import (
	"errors"
	"reflect"
	"testing"
)

// exportAll renders keys from src in one stream and decodes it.
func exportAll(t *testing.T, src *Store, keys ...string) map[string]Incoming {
	t.Helper()
	data, n, err := src.ExportEntries(keys, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("stream covers %d of %d keys", n, len(keys))
	}
	in, _, err := DecodeEntries(data)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestExportEntryRoundTrip(t *testing.T) {
	src := NewStore()
	if _, err := src.PutStamped(entry("orders", "key", 500), Stamp{Epoch: 3, Origin: "node-a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put(entry("orders", "custno", 600)); err != nil {
		t.Fatal(err)
	}
	tombstone(t, src, "orders.gone", Stamp{Epoch: 4, Origin: "node-b"})
	in := exportAll(t, src, "orders.key", "orders.custno", "orders.gone", "orders.nope")
	if len(in) != 3 {
		t.Fatalf("stream holds %d keys, want 3 (an unknown key is covered by its absence)", len(in))
	}
	if got := in["orders.key"]; got.Stamp != (Stamp{Epoch: 3, Origin: "node-a"}) || got.Entry.FMin != 500 {
		t.Fatalf("orders.key travelled as %+v", got)
	}
	if got := in["orders.gone"]; !got.Tombstone || got.Stamp != (Stamp{Epoch: 4, Origin: "node-b"}) || got.Entry != nil {
		t.Fatalf("tombstone travelled as %+v", got)
	}
	want, _, err := src.Versions()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range in {
		if v.Version != want[k] {
			t.Fatalf("%s decoded as %+v, the source's version is %+v", k, v.Version, want[k])
		}
	}

	dst := NewStore()
	if _, err := dst.Put(entry("orders", "other", 700)); err != nil {
		t.Fatal(err)
	}
	if _, taken, err := dst.Merge(in); err != nil || len(taken) != 3 {
		t.Fatalf("Merge took %v (%v), want all 3 keys", taken, err)
	}
	if got := dst.Keys(); !reflect.DeepEqual(got, []string{"orders.custno", "orders.key", "orders.other"}) {
		t.Fatalf("after Merge keys = %v, want the union (a local-only key is kept)", got)
	}
	if got := dst.Snapshot().Stamps(); !reflect.DeepEqual(got, src.Snapshot().Stamps()) {
		t.Fatalf("stamps after Merge %v, want the source's %v", got, src.Snapshot().Stamps())
	}

	// A byte cap splits the export; the covered prefix always advances.
	data, n, err := src.ExportEntries([]string{"orders.key", "orders.custno"}, 1)
	if err != nil || n != 1 {
		t.Fatalf("capped export covered %d keys (%v), want 1", n, err)
	}
	if in, _, err := DecodeEntries(data); err != nil || len(in) != 1 || in["orders.key"].Entry == nil {
		t.Fatalf("capped stream = %+v (%v)", in, err)
	}
}

func TestMergeEntriesRejectsCorruptStream(t *testing.T) {
	src := NewStore()
	if _, err := src.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	data, _, err := src.ExportEntries([]string{"orders.key"}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// No trailer at all: network transfers get no legacy grace.
	if _, _, err := DecodeEntries([]byte(`{"entries":[]}`)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailerless stream err = %v, want ErrCorrupt", err)
	}
	// Flip a payload byte: the trailer CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[10] ^= 0x40
	if _, _, err := DecodeEntries(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted stream err = %v, want ErrCorrupt", err)
	}
}

func TestMergeEntriesSkipAndNoop(t *testing.T) {
	src := NewStore()
	if _, err := src.PutStamped(entry("orders", "key", 500), Stamp{Epoch: 1, Origin: "node-a"}); err != nil {
		t.Fatal(err)
	}
	in := exportAll(t, src, "orders.key")

	// A key whose local version orders after the peer's is skipped.
	dst := NewStore()
	if _, err := dst.PutStamped(entry("orders", "key", 111), Stamp{Epoch: 2, Origin: "node-a"}); err != nil {
		t.Fatal(err)
	}
	before := dst.Generation()
	gen, taken, err := dst.Merge(in)
	if err != nil || gen != before || len(taken) != 0 {
		t.Fatalf("merge of an older version = (%d, %v, %v), want (%d, none, nil)", gen, taken, err, before)
	}
	if got, _ := dst.Get("orders", "key"); got.FMin != 111 {
		t.Fatalf("skipped key was overwritten, FMin = %d", got.FMin)
	}
	if gen, taken, err := dst.Merge(nil); err != nil || gen != before || taken != nil {
		t.Fatalf("empty merge = (%d, %v, %v), want (%d, nil, nil)", gen, taken, err, before)
	}

	// Equal stamps fall back to the CRC: both sides pick the same winner.
	a, b := NewStore(), NewStore()
	same := Stamp{Epoch: 5, Origin: "node-x"}
	if _, err := a.PutStamped(entry("t", "c", 101), same); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutStamped(entry("t", "c", 102), same); err != nil {
		t.Fatal(err)
	}
	fromA, fromB := exportAll(t, a, "t.c"), exportAll(t, b, "t.c")
	if _, _, err := a.Merge(fromB); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Merge(fromA); err != nil {
		t.Fatal(err)
	}
	ea, _ := a.Get("t", "c")
	eb, _ := b.Get("t", "c")
	if ea.FMin != eb.FMin {
		t.Fatalf("equal stamps diverged after exchange: %d vs %d", ea.FMin, eb.FMin)
	}

	// A stamp fold lands only while the base holds the folded CRC.
	va, _, err := a.Versions()
	if err != nil {
		t.Fatal(err)
	}
	later := Stamp{Epoch: 9, Origin: "node-y"}
	fold := map[string]Incoming{"t.c": {Version: Version{Stamp: later, CRC: va["t.c"].CRC}}}
	if _, taken, err := a.Merge(fold); err != nil || len(taken) != 1 || a.Snapshot().Stamp("t.c") != later {
		t.Fatalf("fold onto a matching CRC took %v (%v), stamp %v", taken, err, a.Snapshot().Stamp("t.c"))
	}
	fold["t.c"] = Incoming{Version: Version{Stamp: Stamp{Epoch: 10, Origin: "node-y"}, CRC: va["t.c"].CRC + 1}}
	if _, taken, err := a.Merge(fold); err != nil || len(taken) != 0 || a.Snapshot().Stamp("t.c") != later {
		t.Fatalf("fold onto another CRC took %v (%v), stamp %v", taken, err, a.Snapshot().Stamp("t.c"))
	}
}

// TestMergeTombstones holds the tombstone rules: a later tombstone deletes
// the local entry, a node that lacks the key records it, an older entry can
// then never come back, and a key no peer tombstoned is kept.
func TestMergeTombstones(t *testing.T) {
	dst := NewStore()
	if _, err := dst.PutStamped(entry("t", "x", 101), Stamp{Epoch: 1, Origin: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Put(entry("t", "local", 102)); err != nil {
		t.Fatal(err)
	}
	tomb := func(e uint64) Incoming {
		return Incoming{Version: Version{Stamp: Stamp{Epoch: e, Origin: "b"}, Tombstone: true}}
	}
	gen, taken, err := dst.Merge(map[string]Incoming{"t.x": tomb(2), "t.y": tomb(3)})
	if err != nil || !reflect.DeepEqual(taken, []string{"t.x", "t.y"}) {
		t.Fatalf("tombstones took %v (%v)", taken, err)
	}
	if got := dst.Keys(); !reflect.DeepEqual(got, []string{"t.local"}) {
		t.Fatalf("keys after tombstones %v, want only the local-only key", got)
	}
	if got := dst.Snapshot().Stamp("t.y"); got != (Stamp{Epoch: 3, Origin: "b"}) {
		t.Fatalf("tombstone for an absent key recorded as %v", got)
	}
	old := NewStore()
	if _, err := old.PutStamped(entry("t", "y", 109), Stamp{Epoch: 2, Origin: "c"}); err != nil {
		t.Fatal(err)
	}
	if _, taken, err := dst.Merge(exportAll(t, old, "t.y")); err != nil || len(taken) != 0 || dst.Generation() != gen {
		t.Fatalf("an older copy came back: took %v (%v)", taken, err)
	}
}

// TestMergeRefusesInvalidEntry: an offered entry that does not validate
// fails the whole merge, valid keys beside it included, and commits
// nothing, so every record a store holds has a compiled estimator.
func TestMergeRefusesInvalidEntry(t *testing.T) {
	for name, open := range map[string]func(t *testing.T) *Store{
		"memory": func(*testing.T) *Store { return NewStore() },
		"wal":    func(t *testing.T) *Store { st, _ := walFixture(t, WALOptions{}, nil); return st },
	} {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			if _, err := st.Put(entry("t", "held", 500)); err != nil {
				t.Fatal(err)
			}
			before, snap := st.Generation(), st.Snapshot()
			bad := entry("t", "bad", 600)
			bad.I = bad.N + 1 // fails Validate
			later := Stamp{Epoch: 7, Origin: "node-b"}
			in := map[string]Incoming{
				"t.bad":  {Version: Version{Stamp: later}, Entry: bad},
				"t.good": {Version: Version{Stamp: later}, Entry: entry("t", "good", 700)},
			}
			gen, taken, err := st.Merge(in)
			if err == nil || gen != 0 || taken != nil {
				t.Fatalf("merge of an invalid entry = (%d, %v, %v), want an error", gen, taken, err)
			}
			if st.Generation() != before || st.Snapshot() != snap {
				t.Fatalf("a refused merge committed: generation %d -> %d", before, st.Generation())
			}
			if _, ok := st.Snapshot().CompiledByKey("t.bad"); ok {
				t.Fatal("a refused entry has an estimator")
			}
			if got := st.Snapshot().Stamp("t.good"); got != (Stamp{}) {
				t.Fatalf("a refused merge stamped t.good %v", got)
			}
		})
	}
}

func TestEntryDigestsMatchContent(t *testing.T) {
	a, b := NewStore(), NewStore()
	for _, st := range []struct {
		col  string
		fmin int64
	}{{"key", 500}, {"custno", 600}} {
		if _, err := a.Put(entry("orders", st.col, st.fmin)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Put(entry("orders", st.col, st.fmin)); err != nil {
			t.Fatal(err)
		}
	}
	da, _, err := a.Versions()
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := b.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(da) != 2 || !reflect.DeepEqual(da, db) {
		t.Fatalf("identical stores report versions %v and %v", da, db)
	}
	// A divergent entry changes exactly its own CRC; a stamped delete
	// shows as a tombstone beside it.
	if _, err := b.PutStamped(entry("orders", "key", 999), Stamp{Epoch: 7, Origin: "n"}); err != nil {
		t.Fatal(err)
	}
	tombstone(t, b, "orders.gone", Stamp{Epoch: 8, Origin: "n"})
	db2, gen, err := b.Versions()
	if err != nil || gen != b.Generation() {
		t.Fatalf("Versions at generation %d (%v), want %d", gen, err, b.Generation())
	}
	if v := db2["orders.key"]; v.CRC == da["orders.key"].CRC || v.Stamp != (Stamp{Epoch: 7, Origin: "n"}) {
		t.Fatalf("mutated entry's version %+v", v)
	}
	if db2["orders.custno"] != da["orders.custno"] {
		t.Fatal("untouched entry changed version")
	}
	if v := db2["orders.gone"]; !v.Tombstone || v.CRC != 0 || v.Stamp.Epoch != 8 {
		t.Fatalf("tombstone's version %+v", v)
	}
}
