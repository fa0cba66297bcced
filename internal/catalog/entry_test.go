package catalog

// Single-entry export/merge and per-entry digest coverage — the catalog
// primitives under delta anti-entropy.

import (
	"errors"
	"testing"
)

func TestExportEntryRoundTrip(t *testing.T) {
	src := NewStore()
	if _, err := src.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put(entry("orders", "custno", 600)); err != nil {
		t.Fatal(err)
	}
	data, gen, err := src.ExportEntry("orders.key")
	if err != nil {
		t.Fatal(err)
	}
	if gen != src.Generation() {
		t.Fatalf("ExportEntry gen = %d, want %d", gen, src.Generation())
	}
	if _, _, err := src.ExportEntry("orders.nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ExportEntry on missing key err = %v, want ErrNotFound", err)
	}

	dst := NewStore()
	if _, err := dst.Put(entry("orders", "other", 700)); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.MergeEntries([][]byte{data}); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2 {
		t.Fatalf("after MergeEntries len = %d, want 2 (union, no deletes)", dst.Len())
	}
	got, err := dst.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	if got.FMin != 500 {
		t.Fatalf("merged entry FMin = %d, want 500", got.FMin)
	}
}

func TestMergeEntriesRejectsCorruptStream(t *testing.T) {
	src := NewStore()
	if _, err := src.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	data, _, err := src.ExportEntry("orders.key")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewStore()
	// No trailer at all: network transfers get no legacy grace.
	if _, err := dst.MergeEntries([][]byte{[]byte(`{"version":1,"entries":[]}`)}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailerless stream err = %v, want ErrCorrupt", err)
	}
	// Flip a payload byte: the trailer CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[10] ^= 0x40
	if _, err := dst.MergeEntries([][]byte{bad}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted stream err = %v, want ErrCorrupt", err)
	}
	if dst.Generation() != 0 {
		t.Fatalf("failed merges must not commit, gen = %d", dst.Generation())
	}
}

func TestMergeEntriesSkipAndNoop(t *testing.T) {
	src := NewStore()
	if _, err := src.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	data, _, err := src.ExportEntry("orders.key")
	if err != nil {
		t.Fatal(err)
	}
	// A stamped key is skipped: cluster mutations, not anti-entropy, own it.
	dst := NewStore()
	if _, err := dst.PutStamped(entry("orders", "key", 111), Stamp{Epoch: 1, Origin: "node-a"}); err != nil {
		t.Fatal(err)
	}
	before := dst.Generation()
	gen, err := dst.MergeEntries([][]byte{data})
	if err != nil {
		t.Fatal(err)
	}
	if gen != before {
		t.Fatalf("fully skipped merge bumped generation %d -> %d", before, gen)
	}
	got, _ := dst.Get("orders", "key")
	if got.FMin != 111 {
		t.Fatalf("skipped key was overwritten, FMin = %d", got.FMin)
	}
	if gen, err := dst.MergeEntries(nil); err != nil || gen != before {
		t.Fatalf("empty merge = (%d, %v), want (%d, nil)", gen, err, before)
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
	da, _, err := a.EntryDigests()
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := b.EntryDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(da) != 2 || len(db) != 2 {
		t.Fatalf("digest sizes %d/%d, want 2/2", len(da), len(db))
	}
	for k, v := range da {
		if db[k] != v {
			t.Fatalf("identical entries digest differently for %s: %08x vs %08x", k, v, db[k])
		}
	}
	// A divergent entry must change exactly its own digest.
	if _, err := b.Put(entry("orders", "key", 999)); err != nil {
		t.Fatal(err)
	}
	db2, _, err := b.EntryDigests()
	if err != nil {
		t.Fatal(err)
	}
	if db2["orders.key"] == da["orders.key"] {
		t.Fatal("mutated entry kept its digest")
	}
	if db2["orders.custno"] != da["orders.custno"] {
		t.Fatal("untouched entry changed digest")
	}
}
