package catalog

// One record per key version: a single-key commit copies one map and no
// more, and every record's stamp names the content or tombstone stored with
// it, never moving backwards, whichever commit made it.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"epfis/internal/stats"
)

// TestSingleKeyCommitCopiesOneMap is the host-independent cost gate for a
// single-key commit. In an in-memory store of 1,024 keys, an unstamped Put
// and, with every key stamped, a PutStamped must each allocate at most 1.5x
// the bytes of one clone of a 1,024-entry map[string]*stats.IndexStats,
// measured here: a commit copies the one record map, shares every other
// record, and adds only its own key's record, entry and estimator.
func TestSingleKeyCommitCopiesOneMap(t *testing.T) {
	const keys, runs = 1024, 64
	bytesPerOp := func(fn func(i int)) float64 {
		fn(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= runs; i++ {
			fn(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	m := make(map[string]*stats.IndexStats, keys)
	for i := 0; i < keys; i++ {
		m[fmt.Sprintf("t.c%04d", i)] = entry("t", fmt.Sprintf("c%04d", i), 500)
	}
	var sink map[string]*stats.IndexStats
	clone := bytesPerOp(func(int) { sink = maps.Clone(m) })
	_ = sink

	for _, stamped := range []bool{false, true} {
		st := NewStore()
		for i := 0; i < keys; i++ {
			e, s := entry("t", fmt.Sprintf("c%04d", i), 500), Stamp{}
			if stamped {
				s = Stamp{Epoch: uint64(i + 1), Origin: "node-a"}
			}
			if _, err := st.PutStamped(e, s); err != nil {
				t.Fatal(err)
			}
		}
		versions := [2]*stats.IndexStats{entry("t", "c0512", 600), entry("t", "c0512", 610)}
		epoch := uint64(keys)
		var err error
		got := bytesPerOp(func(i int) {
			s := Stamp{}
			if stamped {
				epoch++
				s = Stamp{Epoch: epoch, Origin: "node-a"}
			}
			if _, e := st.PutStamped(versions[i%2], s); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("stamped=%v: a single-key commit in %d keys allocates %.0f B, %.2fx a %.0f-B map clone", stamped, keys, got, got/clone, clone)
		if got > 1.5*clone {
			t.Errorf("stamped=%v: a single-key commit allocates %.0f B, over 1.5x the %.0f B of one map clone", stamped, got, clone)
		}
	}
}

// TestRecordStampNamesItsContent drives a seeded history of every commit
// kind (plain and stamped puts and deletes, merged entries, tombstones and
// stamp folds, recorded stamps, ReplaceAll, plain and stamped reloads),
// unstamped keys first, through a WAL-backed store and a plain model. After
// each commit, and after a reopen from the files, every key's record must
// hold the model's content or tombstone under the model's stamp, its
// version's CRC must be that of the content it holds, and no stamp may move
// backwards.
func TestRecordStampNamesItsContent(t *testing.T) {
	type version struct {
		e *stats.IndexStats // nil: tombstone or absent
		s Stamp
	}
	rng := rand.New(rand.NewSource(27))
	st, path := walFixture(t, WALOptions{CheckpointEvery: 16}, nil)
	model := map[string]version{}
	cols := []string{"a", "b", "c", "d", "e"}
	randEntry := func(col string) *stats.IndexStats { return entry("t", col, int64(500+10*rng.Intn(3))) }
	randStamp := func() Stamp {
		return Stamp{Epoch: uint64(1 + rng.Intn(12)), Origin: []string{"node-a", "node-b"}[rng.Intn(2)]}
	}
	crcOf := func(e *stats.IndexStats) uint32 {
		if e == nil {
			return 0
		}
		c, err := entryCRC(e)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	set := func(k string, e *stats.IndexStats, s Stamp) {
		if e == nil && s == (Stamp{}) {
			delete(model, k)
			return
		}
		model[k] = version{e, s}
	}
	check := func(what string, st *Store, prev *Snapshot) {
		t.Helper()
		snap := st.Snapshot()
		vs, _, err := st.Versions()
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != len(model) {
			t.Fatalf("%s: %d versions, model holds %d", what, len(vs), len(model))
		}
		for k, want := range model {
			e, ok := snap.Lookup(k)
			if ok != (want.e != nil) || ok && e.FMin != want.e.FMin {
				t.Fatalf("%s: %s holds %v (live %v), model %v", what, k, e, ok, want.e)
			}
			if got := snap.Stamp(k); got != want.s {
				t.Fatalf("%s: %s stamped %v, model %v", what, k, got, want.s)
			}
			if v := vs[k]; v.Stamp != want.s || v.Tombstone != (want.e == nil) || v.CRC != crcOf(want.e) {
				t.Fatalf("%s: %s version %+v does not name its content (stamp %v, CRC %d)", what, k, v, want.s, crcOf(want.e))
			}
			if prev != nil && snap.Stamp(k).Less(prev.Stamp(k)) {
				t.Fatalf("%s: %s stamp moved back from %v to %v", what, k, prev.Stamp(k), snap.Stamp(k))
			}
		}
	}

	for i := 0; i < 400; i++ {
		prev := st.Snapshot()
		col := cols[rng.Intn(len(cols))]
		k := "t." + col
		held := model[k]
		var what string
		var err error
		op := rng.Intn(9)
		if i < 120 { // unstamped keys first: plain writes, ReplaceAll and reloads
			op = []int{0, 2, 7, 8}[rng.Intn(4)]
		}
		switch op {
		case 0, 1: // a put, stamped or not
			e, s := randEntry(col), Stamp{}
			if op == 1 {
				s = randStamp()
			}
			what = fmt.Sprintf("put %s under %v", k, s)
			_, err = st.PutStamped(e, s)
			if s == (Stamp{}) || held.s.Less(s) {
				set(k, e, later(held.s, s))
			}
		case 2, 3: // a delete, stamped or not
			s := Stamp{}
			if op == 3 {
				s = randStamp()
			}
			what = fmt.Sprintf("delete %s under %v", k, s)
			_, _, err = st.DeleteStamped("t", col, s)
			if held.e != nil && (s == (Stamp{}) || held.s.Less(s)) {
				set(k, nil, later(held.s, s))
			}
		case 4, 5: // a peer's entry or tombstone
			in := Incoming{Version: Version{Stamp: randStamp()}}
			if op == 4 {
				in.Entry = randEntry(col)
				in.CRC = crcOf(in.Entry)
			} else {
				in.Tombstone = true
			}
			what = fmt.Sprintf("merge %s %+v", k, in.Version)
			_, _, err = st.Merge(map[string]Incoming{k: in})
			if in.After(Version{Stamp: held.s, CRC: crcOf(held.e), Tombstone: held.e == nil && held.s != (Stamp{})}) {
				set(k, in.Entry, in.Stamp)
			}
		case 6: // a stamp fold, or a recorded stamp
			s := randStamp()
			if rng.Intn(2) == 0 {
				what = fmt.Sprintf("fold %s to %v", k, s)
				_, _, err = st.Merge(map[string]Incoming{k: {Version: Version{Stamp: s, CRC: crcOf(held.e)}}})
				if held.e != nil && held.s.Less(s) {
					set(k, held.e, s)
				}
			} else {
				what = fmt.Sprintf("record %s under %v", k, s)
				_, err = st.RecordStamps(map[string]Stamp{k: s})
				if held.s.Less(s) {
					set(k, held.e, s)
				}
			}
		case 7: // ReplaceAll keeps every stamp
			c := stats.NewCatalog()
			file := map[string]*stats.IndexStats{}
			for _, col := range cols {
				if rng.Intn(2) == 0 {
					e := randEntry(col)
					file[e.Key()] = e
					if err := c.Put(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			what = "replace all"
			_, err = st.ReplaceAll(c)
			for k, v := range model {
				set(k, nil, v.s)
			}
			for k, e := range file {
				set(k, e, model[k].s)
			}
		case 8: // a reload of a refreshed file, stamped after the first phase
			var entries []*stats.IndexStats
			file := map[string]*stats.IndexStats{}
			for _, col := range cols {
				if rng.Intn(3) > 0 {
					e := randEntry(col)
					file[e.Key()] = e
					entries = append(entries, e)
				}
			}
			refresh(t, path, entries...)
			s := Stamp{}
			if i >= 120 {
				s = randStamp()
			}
			what = fmt.Sprintf("reload under %v", s)
			_, err = st.ReloadStamped(s)
			for _, col := range cols {
				k := "t." + col
				held, e := model[k], file[k]
				if (held.e == nil) == (e == nil) && (e == nil || held.e.FMin == e.FMin) || s != (Stamp{}) && !held.s.Less(s) {
					continue
				}
				set(k, e, later(held.s, s))
			}
		}
		if err != nil && !errors.Is(err, ErrStale) {
			t.Fatalf("step %d, %s: %v", i, what, err)
		}
		check(fmt.Sprintf("step %d, %s", i, what), st, prev)
	}
	check("reopened", reopenWAL(t, path), nil)
}
