package catalog

// Stamp coverage: stamped commits are durable with their writes across
// reopen, checkpoint rotation, recovery from the retained files and a torn
// tail; merges keep writes that land beside them; and single-key commits
// share what they did not change.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"epfis/internal/faultfs"
	"epfis/internal/stats"
)

// reopenWAL opens the store at path from its files alone, as a restart
// after a crash would, without closing any store still open over them.
func reopenWAL(t *testing.T, path string) *Store {
	t.Helper()
	re, err := OpenWAL(path, WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// tombstone records s as key's tombstone the one way a peer's delete of a
// key this node lacks arrives: through Merge.
func tombstone(t testing.TB, st *Store, key string, s Stamp) {
	t.Helper()
	if _, taken, err := st.Merge(map[string]Incoming{key: {Version: Version{Stamp: s, Tombstone: true}}}); err != nil || len(taken) != 1 {
		t.Fatalf("tombstone %s under %v: taken %v, %v", key, s, taken, err)
	}
}

// checkStamped compares a store's entries and stamp table with the model.
func checkStamped(t *testing.T, what string, st *Store, state map[string]int64, stamps map[string]Stamp) {
	t.Helper()
	snap := st.Snapshot()
	if got := stateOf(snap); !statesEqual(got, state) {
		t.Fatalf("%s: state %v, want %v", what, got, state)
	}
	if got := snap.Stamps(); !reflect.DeepEqual(got, stamps) {
		t.Fatalf("%s: stamps %v, want %v", what, got, stamps)
	}
}

func TestWALStampsSurviveReopenRotationAndRecovery(t *testing.T) {
	st, path := walFixture(t, WALOptions{CheckpointEvery: -1}, nil)
	a1, b2, a3 := Stamp{Epoch: 1, Origin: "node-a"}, Stamp{Epoch: 2, Origin: "node-b"}, Stamp{Epoch: 3, Origin: "node-a"}
	if _, err := st.PutStamped(entry("orders", "key", 500), a1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(entry("orders", "custno", 600)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutStamped(entry("lineitem", "partkey", 700), a1); err != nil {
		t.Fatal(err)
	}
	if ok, _, err := st.DeleteStamped("lineitem", "partkey", b2); err != nil || !ok {
		t.Fatalf("stamped delete = (%v, %v)", ok, err)
	}
	// A peer's delete of a key this node never held: the tombstone alone.
	tombstone(t, st, "orders.ghost", a3)
	// A local delete of an absent key records nothing.
	if ok, gen, err := st.DeleteStamped("orders", "nothing", Stamp{Epoch: 9, Origin: "node-a"}); err != nil || ok || gen != st.Generation() {
		t.Fatalf("absent local delete = (%v, %d, %v)", ok, gen, err)
	}
	state := map[string]int64{"orders.key": 500, "orders.custno": 600}
	stamps := map[string]Stamp{"orders.key": a1, "lineitem.partkey": b2, "orders.ghost": a3}
	checkStamped(t, "live", st, state, stamps)

	// Reopen from the log alone: no Close, no checkpoint.
	re := reopenWAL(t, path)
	checkStamped(t, "reopen", re, state, stamps)

	// A checkpoint rotates the log: the stamps ride into the fresh log as
	// stamp records, since the checkpoint file holds none.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re = reopenWAL(t, path)
	checkStamped(t, "after rotation", re, state, stamps)

	// Commit past that checkpoint and rotate again, then make the newest
	// checkpoint unverifiable: recovery loads the retained one and replays
	// the retained log and the current one.
	b4 := Stamp{Epoch: 4, Origin: "node-b"}
	if _, err := re.PutStamped(entry("orders", "key", 501), b4); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	state["orders.key"], stamps["orders.key"] = 501, b4
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re = reopenWAL(t, path)
	if !re.Recovered() {
		t.Fatal("corrupt checkpoint did not recover from .prev")
	}
	checkStamped(t, "recovery from .prev", re, state, stamps)

	// A torn stamped frame at the tail is cut; the commits before it stay.
	a5 := Stamp{Epoch: 5, Origin: "node-a"}
	if _, err := re.PutStamped(entry("orders", "custno", 601), a5); err != nil {
		t.Fatal(err)
	}
	state["orders.custno"], stamps["orders.custno"] = 601, a5
	torn := appendRecord(nil, walFramePutStamped, re.WALStatsNow().LSN+1,
		append(appendStampHeader(nil, Stamp{Epoch: 6, Origin: "node-a"}, "orders.key"), `{"table":"orders"}`...))
	f, err := os.OpenFile(re.WALPath(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re = reopenWAL(t, path)
	checkStamped(t, "torn tail", re, state, stamps)
}

// TestWALStampsSurviveAdoption adopts an out-of-band catalog file over a
// log with stamped frames. The adoption checkpoints without rotating, so
// the next open finds those frames below the checkpoint's LSN: their stamps
// must still fold, while their entries stay replaced by the file's.
func TestWALStampsSurviveAdoption(t *testing.T) {
	st, path := walFixture(t, WALOptions{CheckpointEvery: -1}, nil)
	stamps := map[string]Stamp{"orders.key": {Epoch: 1, Origin: "node-a"}, "orders.ghost": {Epoch: 2, Origin: "node-b"}}
	if _, err := st.PutStamped(entry("orders", "key", 500), stamps["orders.key"]); err != nil {
		t.Fatal(err)
	}
	tombstone(t, st, "orders.ghost", stamps["orders.ghost"])
	c := stats.NewCatalog()
	if err := c.Put(entry("lineitem", "partkey", 700)); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	state := map[string]int64{"lineitem.partkey": 700}
	checkStamped(t, "adoption", reopenWAL(t, path), state, stamps)
	checkStamped(t, "reopen after adoption", reopenWAL(t, path), state, stamps)
}

func TestWALReplaysStampedFormat(t *testing.T) {
	// testdata/stamped.wal holds every stamped frame type: header, stamped
	// put, put, stamped put, stamped delete, stamped put, stamped delete of
	// an absent key, and a stamp record. It must replay to the same catalog
	// and stamps, without being rewritten.
	data, err := os.ReadFile(filepath.Join("testdata", "stamped.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(path+".wal", data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := reopenWAL(t, path)
	checkStamped(t, "stamped.wal", re,
		map[string]int64{"orders.custno": 600, "lineitem.partkey": 700, "lineitem.suppkey": 800},
		map[string]Stamp{
			"orders.key":       {Epoch: 4, Origin: "node-b"},
			"lineitem.suppkey": {Epoch: 5, Origin: "node-a"},
			"orders.ghost":     {Epoch: 6, Origin: "node-c"},
			"orders.custno":    {Epoch: 7, Origin: "node-a"},
			"lineitem.partkey": {Epoch: 3, Origin: "node-a"},
		})
	if ws := re.WALStatsNow(); ws.LSN != 7 || ws.DurableLSN != 7 {
		t.Fatalf("wal stats %+v, want lsn 7", ws)
	}
	if after, err := os.ReadFile(path + ".wal"); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("replay rewrote an intact log (%v)", err)
	}
}

// TestWALMergeKeepsConcurrentPut is the regression for a merge that reverted
// an acknowledged write: a stamped Put of X that is applied but still
// waiting on its fsync when an anti-entropy merge of a peer's X and Y builds
// its entry set must survive the merge, in memory and on disk. The merge
// must build on that write, not on the published snapshot, and must skip X
// because the write stamped it.
func TestWALMergeKeepsConcurrentPut(t *testing.T) {
	src := NewStore()
	for _, col := range []string{"x", "y"} {
		if _, err := src.Put(entry("orders", col, 700)); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := src.ExportEntries([]string{"orders.x", "orders.y"}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := DecodeEntries(data)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, path := walFixture(t, WALOptions{CheckpointEvery: -1}, inj)
	if _, err := st.Put(entry("orders", "x", 500)); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Path: ".wal", Mode: faultfs.ModeSlow, Delay: 400 * time.Millisecond})
	before := st.WALStatsNow().LSN
	done := make(chan error, 1)
	go func() {
		_, err := st.PutStamped(entry("orders", "x", 501), Stamp{Epoch: 1, Origin: "node-a"})
		done <- err
	}()
	for st.WALStatsNow().LSN == before {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := st.Merge(in); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("PutStamped: %v", err)
	}
	want := map[string]int64{"orders.x": 501, "orders.y": 700}
	if got := stateOf(st.Snapshot()); !statesEqual(got, want) {
		t.Fatalf("after merge beside an acknowledged put: %v, want %v", got, want)
	}
	if got := stateOf(reopenWAL(t, path).Snapshot()); !statesEqual(got, want) {
		t.Fatalf("reopened after merge: %v, want %v", got, want)
	}
}

// TestWALStampGateSeesPendingMerge is the race the stamp gate closes: a
// merge that takes a peer's later write of x is applied but still waiting
// on its fsync when a replicated write of x with an older stamp commits.
// The gate runs against the commit's base, which holds the merge, so the
// older write is refused: otherwise it would store older content under the
// merge's newer stamp, a fence would pass on stale data, and the key would
// never converge.
func TestWALStampGateSeesPendingMerge(t *testing.T) {
	peer := NewStore()
	newer := Stamp{Epoch: 9, Origin: "node-b"}
	if _, err := peer.PutStamped(entry("orders", "x", 900), newer); err != nil {
		t.Fatal(err)
	}
	data, _, err := peer.ExportEntries([]string{"orders.x"}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := DecodeEntries(data)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, path := walFixture(t, WALOptions{CheckpointEvery: -1}, inj)
	if _, err := st.PutStamped(entry("orders", "x", 100), Stamp{Epoch: 1, Origin: "node-a"}); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Path: ".wal", Mode: faultfs.ModeSlow, Delay: 400 * time.Millisecond})
	before := st.WALStatsNow().LSN
	done := make(chan error, 1)
	go func() {
		_, _, err := st.Merge(in)
		done <- err
	}()
	for st.WALStatsNow().LSN == before {
		time.Sleep(time.Millisecond)
	}
	if _, err := st.PutStamped(entry("orders", "x", 700), Stamp{Epoch: 7, Origin: "node-c"}); !errors.Is(err, ErrStale) {
		t.Fatalf("older write beside a pending merge = %v, want ErrStale", err)
	}
	if _, _, err := st.DeleteStamped("orders", "x", Stamp{Epoch: 8, Origin: "node-c"}); !errors.Is(err, ErrStale) {
		t.Fatalf("older delete beside a pending merge = %v, want ErrStale", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for what, s := range map[string]*Store{"live": st, "reopened": reopenWAL(t, path)} {
		snap := s.Snapshot()
		if e, ok := snap.Lookup("orders.x"); !ok || e.FMin != 900 || snap.Stamp("orders.x") != newer {
			t.Fatalf("%s: orders.x = %+v under %v, want the merged write under %v", what, e, snap.Stamp("orders.x"), newer)
		}
	}
}

// TestSingleKeyCommitSharesUnchangedParts holds a single-key commit to work
// that does not grow with the catalog: every key a commit does not change
// keeps its record by pointer (entry, estimator, stamp and CRC with it), a
// PUT of an existing key keeps the sorted key slice, and a stamp fold makes
// a new record that shares the entry, the estimator and the CRC.
func TestSingleKeyCommitSharesUnchangedParts(t *testing.T) {
	st := NewStore()
	for i, col := range []string{"a", "c", "e"} {
		if _, err := st.Put(entry("t", col, int64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.PutStamped(entry("t", "a", 300), Stamp{Epoch: 1, Origin: "node-a"}); err != nil {
		t.Fatal(err)
	}
	tombstone(t, st, "t.z", Stamp{Epoch: 2, Origin: "node-b"})
	// commit runs one commit and requires every key but its own to keep
	// its record, and its own to get a new one.
	commit := func(what, key string, fn func() error) (prev, next *Snapshot) {
		t.Helper()
		prev = st.Snapshot()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		next = st.Snapshot()
		for k, r := range prev.recs {
			if k != key && next.recs[k] != r {
				t.Fatalf("%s: unchanged key %s got a new record", what, k)
			}
		}
		if next.recs[key] == prev.recs[key] {
			t.Fatalf("%s: %s kept its old record", what, key)
		}
		return prev, next
	}
	prev, next := commit("unstamped PUT", "t.c", func() error { _, err := st.Put(entry("t", "c", 301)); return err })
	if &next.keys[0] != &prev.keys[0] {
		t.Fatal("a PUT of an existing key re-sorted the key slice")
	}
	if next.recs["t.c"].compiled == prev.recs["t.c"].compiled || next.recs["t.c"].compiled == nil {
		t.Fatal("a PUT must recompile its own key")
	}
	commit("stamped PUT", "t.e", func() error {
		_, err := st.PutStamped(entry("t", "e", 302), Stamp{Epoch: 3, Origin: "node-a"})
		return err
	})

	// Stamp folds, by merge and by RecordStamps: a new record under the
	// later stamp, sharing the entry, the estimator and the CRC.
	before := st.Snapshot()
	v, err := before.recs["t.a"].version()
	if err != nil {
		t.Fatal(err)
	}
	fold := Stamp{Epoch: 4, Origin: "node-b"}
	commit("merged stamp fold", "t.a", func() error {
		_, _, err := st.Merge(map[string]Incoming{"t.a": {Version: Version{Stamp: fold, CRC: v.CRC}}})
		return err
	})
	commit("recorded stamp fold", "t.c", func() error {
		_, err := st.RecordStamps(map[string]Stamp{"t.c": {Epoch: 5, Origin: "node-a"}})
		return err
	})
	for _, k := range []string{"t.a", "t.c"} {
		r, was := st.Snapshot().recs[k], before.recs[k]
		if r.entry != was.entry || r.compiled != was.compiled || r.crc.Load() != was.crc.Load() {
			t.Fatalf("a stamp fold of %s did not share the entry, estimator and CRC", k)
		}
	}
	if got := st.Snapshot().Stamp("t.a"); got != fold {
		t.Fatalf("t.a folded to %v, want %v", got, fold)
	}

	// Inserts and deletes splice the sorted slice without touching prev's.
	commit("insert", "t.b", func() error { _, err := st.Put(entry("t", "b", 303)); return err })
	commit("delete", "t.e", func() error { _, _, err := st.Delete("t", "e"); return err })
	if got, want := st.Keys(), []string{"t.a", "t.b", "t.c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	if got, want := next.Keys(), []string{"t.a", "t.c", "t.e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("an older snapshot's keys changed to %v, want %v", got, want)
	}
	if _, ok := st.Snapshot().recs["t.e"]; !ok || st.Snapshot().Stamp("t.e").Epoch != 3 {
		t.Fatal("an unstamped delete of a stamped key must leave its stamp as the tombstone")
	}
}

// TestWALReloadStampsRefresh: a stamped reload is a write. Each key the
// file changes or adds is stamped, each key it drops gets a tombstone, an
// unchanged key keeps its stamp, and a key whose held stamp orders after
// the reload's keeps its entry. The commit survives a reopen and a recovery
// from the adopted file the checkpoint retained.
func TestWALReloadStampsRefresh(t *testing.T) {
	st, path := walFixture(t, WALOptions{CheckpointEvery: -1}, nil)
	s1, later := Stamp{Epoch: 1, Origin: "node-a"}, Stamp{Epoch: 9, Origin: "node-b"}
	for _, w := range []struct {
		col  string
		fmin int64
		s    Stamp
	}{{"keep", 500, s1}, {"changed", 510, s1}, {"dropped", 520, s1}, {"later", 530, later}} {
		if _, err := st.PutStamped(entry("t", w.col, w.fmin), w.s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	refresh(t, path, entry("t", "keep", 500), entry("t", "changed", 600), entry("t", "added", 700), entry("t", "later", 800))
	s := Stamp{Epoch: 5, Origin: "node-a"}
	if _, err := st.ReloadStamped(s); err != nil {
		t.Fatal(err)
	}
	state := map[string]int64{"t.keep": 500, "t.changed": 600, "t.added": 700, "t.later": 530}
	stamps := map[string]Stamp{"t.keep": s1, "t.changed": s, "t.added": s, "t.dropped": s, "t.later": later}
	checkStamped(t, "after the reload", st, state, stamps)
	checkStamped(t, "reopened", reopenWAL(t, path), state, stamps)
	if err := os.WriteFile(path, []byte("not a catalog"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := reopenWAL(t, path)
	if !re.Recovered() {
		t.Fatal("reopen over a corrupt checkpoint did not recover from the retained file")
	}
	checkStamped(t, "recovered from the adopted file", re, state, stamps)
}

// TestOpenAdoptionStampsRefresh: a file adopted at open names the keys it
// changed, added or removed against the state it replaced (the retained
// checkpoint and both logs), and StampRefreshed stamps exactly those, once.
func TestOpenAdoptionStampsRefresh(t *testing.T) {
	st, path := walFixture(t, WALOptions{CheckpointEvery: 2}, nil)
	s1 := Stamp{Epoch: 1, Origin: "node-a"}
	for _, col := range []string{"keep", "changed", "dropped"} {
		if _, err := st.PutStamped(entry("t", col, 500), s1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Put(entry("t", "plain", 540)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	refresh(t, path, entry("t", "keep", 500), entry("t", "changed", 600), entry("t", "added", 700), entry("t", "plain", 540))

	re, err := OpenWAL(path, WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	state := map[string]int64{"t.keep": 500, "t.changed": 600, "t.added": 700, "t.plain": 540}
	checkStamped(t, "adopted", re, state, map[string]Stamp{"t.keep": s1, "t.changed": s1, "t.dropped": s1})
	s := Stamp{Epoch: 2, Origin: "node-a"}
	if _, err := re.StampRefreshed(func() (Stamp, error) { return s, nil }); err != nil {
		t.Fatal(err)
	}
	stamps := map[string]Stamp{"t.keep": s1, "t.changed": s, "t.added": s, "t.dropped": s}
	checkStamped(t, "stamped", re, state, stamps)
	gen := re.Generation()
	if _, err := re.StampRefreshed(func() (Stamp, error) { t.Fatal("a second StampRefreshed asked for a stamp"); return Stamp{}, nil }); err != nil || re.Generation() != gen {
		t.Fatalf("a second StampRefreshed committed (generation %d -> %d, %v)", gen, re.Generation(), err)
	}
	checkStamped(t, "reopened", reopenWAL(t, path), state, stamps)
}
