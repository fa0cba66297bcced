package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/stats"
)

// walFixture opens a WAL-backed store in a fresh temp dir.
func walFixture(t *testing.T, opts WALOptions, fsys faultfs.FS) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "catalog.json")
	if fsys == nil {
		fsys = faultfs.OS()
	}
	st, err := OpenWALFS(path, opts, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, path
}

// stateOf captures the observable catalog contents for equality checks.
func stateOf(s *Snapshot) map[string]int64 {
	out := make(map[string]int64, s.Len())
	for _, k := range s.keys {
		out[k] = s.recs[k].entry.FMin
	}
	return out
}

func statesEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	st, path := walFixture(t, WALOptions{}, nil)
	if gen, err := st.Put(entry("orders", "key", 500)); err != nil || gen != 1 {
		t.Fatalf("Put = (%d, %v), want gen 1", gen, err)
	}
	if gen, err := st.Put(entry("orders", "custno", 600)); err != nil || gen != 2 {
		t.Fatalf("Put = (%d, %v), want gen 2", gen, err)
	}
	if ok, gen, err := st.Delete("orders", "key"); err != nil || !ok || gen != 3 {
		t.Fatalf("Delete = (%v, %d, %v), want (true, 3)", ok, gen, err)
	}
	if ok, _, err := st.Delete("orders", "key"); err != nil || ok {
		t.Fatalf("second Delete = (%v, %v), want no-op", ok, err)
	}
	want := stateOf(st.Snapshot())
	if st.WALStatsNow().DurableLSN != 3 {
		t.Fatalf("durable lsn = %d, want 3", st.WALStatsNow().DurableLSN)
	}
	st.Close()
	if _, err := st.Put(entry("x", "y", 100)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close err = %v, want ErrClosed", err)
	}

	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := stateOf(re.Snapshot()); !statesEqual(got, want) {
		t.Fatalf("reopened state %v, want %v", got, want)
	}
	// Compiled estimators must exist for replayed entries too.
	if _, ok := re.Snapshot().Compiled("orders", "custno"); !ok {
		t.Fatal("replayed entry has no compiled estimator")
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	// Concurrent writers with a slowed WAL fsync: commits must all land, and
	// group commit must batch them — far fewer fsyncs than mutations.
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Path: ".wal", Nth: 1, Count: -1,
		Mode: faultfs.ModeSlow, Delay: 4 * time.Millisecond})
	st, path := walFixture(t, WALOptions{}, inj)

	const writers, each = 8, 8
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				col := fmt.Sprintf("c%d_%d", wkr, i)
				if _, err := st.Put(entry("t", col, int64(100+wkr))); err != nil {
					t.Errorf("Put %s: %v", col, err)
				}
			}
		}(wkr)
	}
	wg.Wait()

	if n := st.Len(); n != writers*each {
		t.Fatalf("Len = %d, want %d", n, writers*each)
	}
	ws := st.WALStatsNow()
	if ws.LSN != writers*each || ws.DurableLSN != ws.LSN {
		t.Fatalf("wal stats = %+v, want lsn=durable=%d", ws, writers*each)
	}
	syncs := 0
	for _, op := range inj.Trace() {
		if strings.HasPrefix(op, string(faultfs.OpSync)) && strings.Contains(op, ".wal") {
			syncs++
		}
	}
	// One fsync for the header plus one per group. Strictly fewer than one
	// per commit proves batching happened.
	if syncs >= writers*each {
		t.Fatalf("%d wal fsyncs for %d commits: group commit did not batch", syncs, writers*each)
	}
	want := stateOf(st.Snapshot())
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := stateOf(re.Snapshot()); !statesEqual(got, want) {
		t.Fatal("reopened state diverged after concurrent commits")
	}
}

func TestWALCheckpointRotation(t *testing.T) {
	st, path := walFixture(t, WALOptions{CheckpointEvery: 4}, nil)
	for i := 0; i < 10; i++ {
		if _, err := st.Put(entry("t", fmt.Sprintf("c%d", i), 200)); err != nil {
			t.Fatal(err)
		}
	}
	// 10 commits with CheckpointEvery=4: at least two checkpoints ran.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), " lsn=") {
		t.Fatal("checkpoint file has no lsn trailer field")
	}
	if ws := st.WALStatsNow(); ws.SinceCheckpoint >= 10 {
		t.Fatalf("SinceCheckpoint = %d after checkpoints", ws.SinceCheckpoint)
	}
	// The rotated log holds only the post-checkpoint tail.
	wal, err := os.ReadFile(st.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) > 4096 {
		t.Fatalf("wal is %d bytes after rotation; rotation did not truncate", len(wal))
	}
	want := stateOf(st.Snapshot())
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := stateOf(re.Snapshot()); !statesEqual(got, want) {
		t.Fatalf("reopened state %v, want %v", got, want)
	}

	// An explicit checkpoint drains the log entirely.
	if _, err := re.Put(entry("t", "late", 250)); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ws := re.WALStatsNow(); ws.SinceCheckpoint != 0 {
		t.Fatalf("SinceCheckpoint = %d after Checkpoint", ws.SinceCheckpoint)
	}
}

func TestWALRecoveryTornTail(t *testing.T) {
	// Build a log of commits, then truncate it at EVERY byte length. Each
	// truncation must recover without error to exactly one of the committed
	// prefix states — never a torn or interpolated catalog.
	st, path := walFixture(t, WALOptions{CheckpointEvery: -1}, nil)
	prefixes := []map[string]int64{stateOf(st.Snapshot())}
	for i := 0; i < 5; i++ {
		if _, err := st.Put(entry("t", fmt.Sprintf("c%d", i), int64(110+i))); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, stateOf(st.Snapshot()))
	}
	st.Close()
	walPath := st.WALPath()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	matches := func(got map[string]int64) int {
		for i, p := range prefixes {
			if statesEqual(got, p) {
				return i
			}
		}
		return -1
	}
	lastIdx := -1
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWAL(path, WALOptions{CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got := stateOf(re.Snapshot())
		re.Close()
		idx := matches(got)
		if idx < 0 {
			t.Fatalf("cut %d: recovered state %v matches no committed prefix", cut, got)
		}
		if idx < lastIdx {
			t.Fatalf("cut %d: recovered prefix %d after already recovering %d", cut, idx, lastIdx)
		}
		lastIdx = idx
	}
	if lastIdx != len(prefixes)-1 {
		t.Fatalf("full log recovered prefix %d, want %d", lastIdx, len(prefixes)-1)
	}
}

func TestWALReplaysCommittedFormat(t *testing.T) {
	// testdata/compat.wal was written before the WAL moved onto framelog:
	// header, put, put, delete, replace, ingest, put. The frame format did
	// not change, so it must replay unchanged to the same catalog, bit for
	// bit, and the same ingest record.
	data, err := os.ReadFile(filepath.Join("testdata", "compat.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(path+".wal", data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWAL(path, WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	want := NewStore()
	for _, e := range []*stats.IndexStats{entry("orders", "key", 500), entry("orders", "custno", 600)} {
		if _, err := want.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := want.Delete("orders", "key"); err != nil {
		t.Fatal(err)
	}
	c := stats.NewCatalog()
	for _, e := range []*stats.IndexStats{entry("lineitem", "partkey", 700), entry("orders", "custno", 610)} {
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := want.ReplaceAll(c); err != nil {
		t.Fatal(err)
	}
	if _, err := want.Put(entry("lineitem", "suppkey", 800)); err != nil {
		t.Fatal(err)
	}
	got, gotGen, err := re.Versions()
	if err != nil {
		t.Fatal(err)
	}
	wantVersions, wantGen, err := want.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantVersions) || gotGen != wantGen {
		t.Fatalf("replayed catalog %v at gen %d, want %v at gen %d", got, gotGen, wantVersions, wantGen)
	}
	recs := re.IngestRecords()
	if len(recs) != 1 || string(recs[0]) != `{"id":"batch-1","table":"lineitem","column":"suppkey","pages":[1,2,3]}` {
		t.Fatalf("replayed ingest records %q", recs)
	}
	if ws := re.WALStatsNow(); ws.LSN != 6 || ws.DurableLSN != 6 {
		t.Fatalf("wal stats %+v, want lsn 6", ws)
	}
	if after, err := os.ReadFile(path + ".wal"); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("replay rewrote an intact log (%v)", err)
	}
}

func TestWALReload(t *testing.T) {
	st, _ := walFixture(t, WALOptions{}, nil)
	if _, err := st.Put(entry("t", "a", 700)); err != nil {
		t.Fatal(err)
	}
	want := stateOf(st.Snapshot())
	gen := st.Generation()
	newGen, err := st.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if newGen <= gen {
		t.Fatalf("Reload gen = %d, want > %d", newGen, gen)
	}
	if got := stateOf(st.Snapshot()); !statesEqual(got, want) {
		t.Fatalf("Reload changed state: %v, want %v", got, want)
	}
}

func TestWALReloadDuringCommitsAndCheckpoints(t *testing.T) {
	// Reloads of the store's own checkpoint race commits and the rotations
	// they trigger: every acknowledged commit must survive them, in memory
	// and across a reopen.
	st, path := walFixture(t, WALOptions{CheckpointEvery: 2}, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	acked := make([]map[string]int64, 4) // per worker: key -> last acknowledged FMin
	for wkr := range acked {
		acked[wkr] = map[string]int64{}
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				col := fmt.Sprintf("c%d_%d", wkr, i%8)
				if _, err := st.Put(entry("t", col, int64(100+i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				acked[wkr]["t."+col] = int64(100 + i)
			}
		}(wkr)
	}
	for i := 0; i < 100; i++ {
		if _, err := st.Reload(); err != nil {
			t.Errorf("Reload %d during commits: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	check := func(what string, s *Snapshot) {
		t.Helper()
		got := stateOf(s)
		for _, m := range acked {
			for k, v := range m {
				if got[k] != v {
					t.Fatalf("%s: %s = %d, want the last acknowledged %d", what, k, got[k], v)
				}
			}
		}
	}
	check("after the reloads", st.Snapshot())
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("after a reopen", re.Snapshot())
}

func TestWALReloadAdoptionDuringCommits(t *testing.T) {
	// Adoptions of refreshed files race commits and checkpoints. A commit
	// that starts after the last adoption returned must survive it, in
	// memory and across a reopen.
	st, path := walFixture(t, WALOptions{CheckpointEvery: 2}, nil)
	var adopted atomic.Bool
	var late atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	after := make([]map[string]int64, 4) // per worker: key -> last FMin committed after the adoptions
	for wkr := range after {
		after[wkr] = map[string]int64{}
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				started := adopted.Load()
				col := fmt.Sprintf("c%d_%d", wkr, i%8)
				if _, err := st.Put(entry("t", col, int64(100+i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if started {
					after[wkr]["t."+col] = int64(100 + i)
					late.Add(1)
				}
			}
		}(wkr)
	}
	for i := 0; i < 20; i++ {
		refresh(t, path, entry("r", "x", int64(300+i)))
		if _, err := st.Reload(); err != nil {
			t.Errorf("Reload %d during commits: %v", i, err)
			break
		}
	}
	adopted.Store(true)
	for late.Load() < 32 && !t.Failed() {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	check := func(what string, s *Snapshot) {
		t.Helper()
		got := stateOf(s)
		for _, m := range after {
			for k, v := range m {
				if got[k] != v {
					t.Fatalf("%s: %s = %d, want %d, committed after the adoptions", what, k, got[k], v)
				}
			}
		}
	}
	check("after the adoptions", st.Snapshot())
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("after a reopen", re.Snapshot())
}

func TestChaosWALAppendAndFsyncFailures(t *testing.T) {
	// Injected append and fsync failures must fail the commit honestly —
	// readers keep the previous durable generation — and the next commit
	// must repair the torn tail and succeed.
	for _, mode := range []struct {
		name string
		rule faultfs.Rule
	}{
		{"append-error", faultfs.Rule{Op: faultfs.OpWrite, Path: ".wal", Nth: 1}},
		{"append-partial", faultfs.Rule{Op: faultfs.OpWrite, Path: ".wal", Nth: 1, Mode: faultfs.ModePartial}},
		{"fsync-error", faultfs.Rule{Op: faultfs.OpSync, Path: ".wal", Nth: 1}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			st, path := walFixture(t, WALOptions{}, inj)
			if _, err := st.Put(entry("t", "base", 101)); err != nil {
				t.Fatal(err)
			}
			before := stateOf(st.Snapshot())
			beforeGen := st.Generation()

			inj.Add(mode.rule) // arms against the NEXT wal write/sync
			if _, err := st.Put(entry("t", "doomed", 102)); err == nil {
				t.Fatal("Put under injected fault succeeded")
			}
			if got := stateOf(st.Snapshot()); !statesEqual(got, before) || st.Generation() != beforeGen {
				t.Fatalf("failed commit leaked: %v gen %d", got, st.Generation())
			}

			// Fault consumed; the store must repair and take new commits.
			if _, err := st.Put(entry("t", "after", 103)); err != nil {
				t.Fatalf("commit after repair: %v", err)
			}
			want := stateOf(st.Snapshot())
			st.Close()
			re, err := OpenWAL(path, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := stateOf(re.Snapshot()); !statesEqual(got, want) {
				t.Fatalf("reopen after fault: %v, want %v", got, want)
			}
			if _, ok := re.Snapshot().Lookup("t.doomed"); ok {
				t.Fatal("aborted commit resurfaced after reopen")
			}
		})
	}
}

func TestChaosWALCheckpointFailure(t *testing.T) {
	// A failing checkpoint (rename of the snapshot) must not lose commits:
	// they are durable in the log regardless.
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Path: "catalog.json", Nth: 1, Count: -1})
	st, path := walFixture(t, WALOptions{CheckpointEvery: 2}, inj)
	for i := 0; i < 6; i++ {
		if _, err := st.Put(entry("t", fmt.Sprintf("c%d", i), 200)); err != nil {
			t.Fatalf("Put %d under checkpoint faults: %v", i, err)
		}
	}
	want := stateOf(st.Snapshot())
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := stateOf(re.Snapshot()); !statesEqual(got, want) {
		t.Fatalf("reopen after failed checkpoints: %v, want %v", got, want)
	}
}

func TestChaosWALRotationSyncDirFailure(t *testing.T) {
	// A rotation whose directory fsync fails after the rename must still
	// switch appends to the new log. Otherwise later commits are fsynced
	// into the replaced, unlinked file and acknowledged, then lost.
	walDir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, path := walFixture(t, WALOptions{Dir: walDir, CheckpointEvery: 2}, inj)
	inj.Add(faultfs.Rule{Op: faultfs.OpSyncDir, Path: walDir, Nth: 1})
	for i := 0; i < 2; i++ {
		if _, err := st.Put(entry("t", fmt.Sprintf("c%d", i), 200)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if inj.Injected() != 1 {
		t.Fatalf("rotation syncdir fault fired %d times, want 1", inj.Injected())
	}
	// Later checkpoints fail before rotating, so nothing else moves the log.
	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Path: "catalog.json", Nth: 1, Count: -1})
	for i := 2; i < 4; i++ {
		if _, err := st.Put(entry("t", fmt.Sprintf("c%d", i), 200)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	want := stateOf(st.Snapshot())
	st.Close()
	re, err := OpenWALFS(path, WALOptions{Dir: walDir}, faultfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := stateOf(re.Snapshot()); !statesEqual(got, want) {
		t.Fatalf("acknowledged commits lost after a failed rotation syncdir: reopened %v, want %v", got, want)
	}
}

func TestChaosWALRotationRenameFailure(t *testing.T) {
	// A rotation that moves the log aside and can neither rename the fresh
	// log into place nor move the old one back must take no commit into the
	// moved file; the next checkpoint gives the log its file back, and every
	// acknowledged commit survives a reopen.
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, path := walFixture(t, WALOptions{CheckpointEvery: 2}, inj)
	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Path: ".wal", Nth: 2, Count: 2})
	var acked []string
	for i := 0; i < 6; i++ {
		col := fmt.Sprintf("c%d", i)
		if _, err := st.Put(entry("t", col, 200)); err == nil {
			acked = append(acked, "t."+col)
		}
	}
	if inj.Injected() != 2 {
		t.Fatalf("rotation rename faults fired %d times, want 2", inj.Injected())
	}
	if len(acked) < 4 {
		t.Fatalf("only %v acknowledged: the log did not get its file back", acked)
	}
	st.Close()
	reopenHas := func(path string, keys []string) {
		t.Helper()
		re, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for _, k := range keys {
			if _, ok := re.Snapshot().Lookup(k); !ok {
				t.Fatalf("acknowledged commit %s lost after a failed rotation", k)
			}
		}
	}
	reopenHas(path, acked)

	// A commit right after the failed rotation, with no checkpoint between
	// it and the reopen, must not be acknowledged from the moved file.
	inj = faultfs.NewInjector(faultfs.OS(), 1)
	st, path = walFixture(t, WALOptions{CheckpointEvery: -1}, inj)
	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Path: ".wal", Nth: 2, Count: 2})
	if err := st.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded under rotation rename faults")
	}
	if _, err := st.Put(entry("t", "late", 200)); err == nil {
		st.Close()
		reopenHas(path, []string{"t.late"})
	}
}

func TestChaosWALConcurrentReadersSeeCommittedOnly(t *testing.T) {
	// Writers race injected faults while readers hammer snapshots: every
	// observed generation must be monotone and every observed entry valid.
	inj := faultfs.NewInjector(faultfs.OS(), 7)
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: ".wal", Nth: 5, Count: 1})
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Path: ".wal", Nth: 9, Count: 2})
	st, path := walFixture(t, WALOptions{CheckpointEvery: 8}, inj)

	stop := make(chan struct{})
	var readerErr error
	var readerMu sync.Mutex
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := st.Snapshot()
				if s.Generation() < lastGen {
					readerMu.Lock()
					readerErr = fmt.Errorf("generation went backwards: %d -> %d", lastGen, s.Generation())
					readerMu.Unlock()
					return
				}
				lastGen = s.Generation()
				for _, k := range s.keys {
					if err := s.recs[k].entry.Validate(); err != nil {
						readerMu.Lock()
						readerErr = fmt.Errorf("reader saw invalid entry %s: %v", k, err)
						readerMu.Unlock()
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	committed := make([][]string, 4)
	for wkr := 0; wkr < 4; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				col := fmt.Sprintf("c%d_%d", wkr, i)
				if _, err := st.Put(entry("t", col, int64(100+i))); err == nil {
					committed[wkr] = append(committed[wkr], "t."+col)
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}

	// Every acknowledged commit must survive a reopen.
	want := stateOf(st.Snapshot())
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := stateOf(re.Snapshot())
	if !statesEqual(got, want) {
		t.Fatalf("reopen state %v, want %v", got, want)
	}
	for _, keys := range committed {
		for _, k := range keys {
			if _, ok := re.Snapshot().Lookup(k); !ok {
				t.Fatalf("acknowledged commit %s lost after reopen", k)
			}
		}
	}
}

// FuzzWALRecovery throws arbitrary bytes at the log reader: recovery must
// never panic and must always produce a store whose every entry validates.
func TestWALIngestJournalInterleavedWithRotation(t *testing.T) {
	// Catalog commits and ingest-journal frames share one log, with
	// checkpoint rotation carrying live ingest frames into each fresh log.
	// Truncate the final log at EVERY byte: recovery must yield a committed
	// catalog prefix state, and every recovered ingest frame must be
	// byte-identical to an appended one — never torn, never invented.
	st, path := walFixture(t, WALOptions{CheckpointEvery: 2}, nil)
	var appended [][]byte
	// Every journaled frame stays live for the whole test, so each rotation
	// must carry all of them forward.
	st.SetIngestSource(func() [][]byte {
		out := make([][]byte, len(appended))
		copy(out, appended)
		return out
	})
	prefixes := []map[string]int64{stateOf(st.Snapshot())}
	for i := 0; i < 6; i++ {
		if _, err := st.Put(entry("t", fmt.Sprintf("c%d", i), int64(110+i))); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, stateOf(st.Snapshot()))
		payload := []byte(fmt.Sprintf(`{"id":"batch-%d","table":"t","column":"c%d","pages":[%d,%d]}`, i, i, i, i+1))
		// Live-set registration precedes the append, as in the service: a
		// rotation racing the append must still carry the new frame.
		appended = append(appended, payload)
		if err := st.AppendIngest(payload); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	walPath := st.WALPath()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	byteSet := map[string]bool{}
	for _, p := range appended {
		byteSet[string(p)] = true
	}

	matches := func(got map[string]int64) bool {
		for _, p := range prefixes {
			if statesEqual(got, p) {
				return true
			}
		}
		return false
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWAL(path, WALOptions{CheckpointEvery: 2})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if got := stateOf(re.Snapshot()); !matches(got) {
			re.Close()
			t.Fatalf("cut %d: recovered catalog %v matches no committed prefix", cut, got)
		}
		recs := re.IngestRecords()
		seen := map[string]int{}
		for _, r := range recs {
			if !byteSet[string(r)] {
				re.Close()
				t.Fatalf("cut %d: recovered ingest frame %q was never appended", cut, r)
			}
			seen[string(r)]++
			if seen[string(r)] > 1 {
				re.Close()
				t.Fatalf("cut %d: ingest frame recovered twice: %q", cut, r)
			}
		}
		re.Close()
	}

	// The untruncated log recovers the complete live journal: rotation must
	// not have dropped a single carried frame.
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWAL(path, WALOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if recs := re.IngestRecords(); len(recs) != len(appended) {
		t.Fatalf("full log recovered %d ingest frames, want %d", len(recs), len(appended))
	}
}

func FuzzWALRecovery(f *testing.F) {
	// Seed with a genuine log so the fuzzer mutates realistic frames.
	dir, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "catalog.json")
	st, err := OpenWAL(seedPath, WALOptions{CheckpointEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Put(entry("t", fmt.Sprintf("c%d", i), int64(100+i))); err != nil {
			f.Fatal(err)
		}
		// Interleave ingest-journal frames so the fuzzer mutates mixed logs.
		if err := st.AppendIngest([]byte(fmt.Sprintf(`{"id":"b%d","pages":[%d]}`, i, i))); err != nil {
			f.Fatal(err)
		}
	}
	st.Close()
	seed, err := os.ReadFile(st.WALPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// A stamped log: stamped put and delete, a tombstone for an absent key,
	// then a rotation that carries the stamp table as stamp records.
	ss, err := OpenWAL(filepath.Join(dir, "stamped.json"), WALOptions{CheckpointEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ss.PutStamped(entry("t", "c0", 100), Stamp{Epoch: 1, Origin: "node-a"}); err != nil {
		f.Fatal(err)
	}
	if _, _, err := ss.DeleteStamped("t", "c0", Stamp{Epoch: 2, Origin: "node-b"}); err != nil {
		f.Fatal(err)
	}
	tombstone(f, ss, "t.ghost", Stamp{Epoch: 3, Origin: "node-a"})
	if err := ss.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if _, err := ss.PutStamped(entry("t", "c1", 101), Stamp{Epoch: 4, Origin: "node-a"}); err != nil {
		f.Fatal(err)
	}
	ss.Close()
	stampedSeed, err := os.ReadFile(ss.WALPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stampedSeed)
	f.Add(stampedSeed[:len(stampedSeed)*2/3])
	// A log of batch frames: a merge taking an entry, a tombstone and a
	// stamp fold, then a stamp import, read before Close rotates them away.
	bs, err := OpenWAL(filepath.Join(dir, "batch.json"), WALOptions{CheckpointEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := bs.Put(entry("t", "c0", 100)); err != nil {
		f.Fatal(err)
	}
	crc, err := entryCRC(entry("t", "c0", 100))
	if err != nil {
		f.Fatal(err)
	}
	s5 := Stamp{Epoch: 5, Origin: "node-b"}
	if _, _, err := bs.Merge(map[string]Incoming{
		"t.c1": {Version: Version{Stamp: s5}, Entry: entry("t", "c1", 101)},
		"t.c2": {Version: Version{Stamp: s5, Tombstone: true}},
		"t.c0": {Version: Version{Stamp: s5, CRC: crc}},
	}); err != nil {
		f.Fatal(err)
	}
	if _, err := bs.RecordStamps(map[string]Stamp{"t.c3": {Epoch: 6, Origin: "node-a"}}); err != nil {
		f.Fatal(err)
	}
	batchSeed, err := os.ReadFile(bs.WALPath())
	if err != nil {
		f.Fatal(err)
	}
	bs.Close()
	f.Add(batchSeed)
	f.Add(batchSeed[:len(batchSeed)-7])

	f.Fuzz(func(t *testing.T, walBytes []byte) {
		tmp := t.TempDir()
		path := filepath.Join(tmp, "catalog.json")
		if err := os.WriteFile(path+".wal", walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWAL(path, WALOptions{CheckpointEvery: -1})
		if err != nil {
			return // honest refusal is fine; panics are not
		}
		s := re.Snapshot()
		for _, k := range s.keys {
			if err := s.recs[k].entry.Validate(); err != nil {
				t.Fatalf("recovered invalid entry %s: %v", k, err)
			}
		}
		// Recovered ingest frames must never be torn: appends were framed
		// whole, so any recovered payload parses where the original did.
		for _, rec := range re.IngestRecords() {
			if len(rec) == 0 {
				t.Fatal("recovered empty ingest frame")
			}
		}
		for k, st := range s.Stamps() {
			if k == "" || st == (Stamp{}) {
				t.Fatalf("recovered stamp %+v for key %q", st, k)
			}
		}
		// The store must accept new commits after any recovery.
		if _, err := re.Put(entry("t", "post", 199)); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		if _, err := re.PutStamped(entry("t", "post", 198), Stamp{Epoch: 1 << 40, Origin: "fuzz"}); err != nil {
			t.Fatalf("PutStamped after recovery: %v", err)
		}
		if err := re.AppendIngest([]byte(`{"id":"post"}`)); err != nil {
			t.Fatalf("AppendIngest after recovery: %v", err)
		}
		re.Close()
	})
}

// TestWALGroupCommitSpeedup gates the WAL design's headline: 16 writers
// committing through group commit reach at least minSpeedup times the rate
// of the rename-per-commit rewrite the WAL replaced (encode the catalog,
// replace the file keeping .prev, fsync the directory), both over a
// 64-entry catalog. Rounds alternate the two sides so host load hits both;
// the gate reads the median round. Durability barriers (file plus directory
// fsyncs, from a rule-free faultfs trace) are counted too: one fsync per
// commit, or a checkpoint after every group, breaks maxBarriersPerCommit
// however fast the disk.
func TestWALGroupCommitSpeedup(t *testing.T) {
	const (
		entries, writers, putsEach = 64, 16, 64
		commits                    = writers * putsEach
		rewrites                   = 64
		rounds                     = 5
		minSpeedup                 = 10.0
		maxBarriersPerCommit       = 0.5
		traceCap                   = 4096 // faultfs.Injector keeps the last 4,096 operations
	)
	cat := stats.NewCatalog()
	for i := 0; i < entries; i++ {
		if err := cat.Put(entry("t", fmt.Sprintf("c%d", i), 2000)); err != nil {
			t.Fatal(err)
		}
	}
	var seed bytes.Buffer
	if err := cat.Save(&seed); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	walRound := func(round int) (perSec float64, barriers int) {
		path := filepath.Join(dir, fmt.Sprintf("wal%d", round), "catalog.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		// A file without an lsn is adopted whole at open: the seeded
		// catalog costs one frame, not 64 commits.
		if err := os.WriteFile(path, seed.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		inj := faultfs.NewInjector(faultfs.OS(), 1)
		st, err := OpenWALFS(path, WALOptions{}, inj)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		mark := len(inj.Trace())
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < putsEach; i++ {
					n := w*putsEach + i
					if _, err := st.Put(entry("t", fmt.Sprintf("c%d", n%entries), 2001+int64(n))); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		perSec = commits / time.Since(start).Seconds()
		trace := inj.Trace()
		if len(trace) >= traceCap {
			t.Fatalf("faultfs trace overflowed (%d operations); barriers uncountable", len(trace))
		}
		for _, op := range trace[mark:] {
			if strings.HasPrefix(op, string(faultfs.OpSync)+" ") || strings.HasPrefix(op, string(faultfs.OpSyncDir)+" ") {
				barriers++
			}
		}
		return perSec, barriers
	}

	renamePath := filepath.Join(dir, "rename", "catalog.json")
	if err := os.MkdirAll(filepath.Dir(renamePath), 0o755); err != nil {
		t.Fatal(err)
	}
	fsys := faultfs.OS()
	var buf bytes.Buffer
	renameRound := func() float64 {
		start := time.Now()
		for i := 0; i < rewrites; i++ {
			buf.Reset()
			if err := cat.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := framelog.Replace(fsys, renamePath, buf.Bytes(), PrevPath(renamePath)); err != nil {
				t.Fatal(err)
			}
			if err := fsys.SyncDir(filepath.Dir(renamePath)); err != nil {
				t.Fatal(err)
			}
		}
		return rewrites / time.Since(start).Seconds()
	}

	speedups := make([]float64, rounds)
	barriers := 0
	for r := range speedups {
		wal, b := walRound(r)
		barriers += b
		speedups[r] = wal / renameRound()
	}
	slices.Sort(speedups)
	perCommit := float64(barriers) / (rounds * commits)
	t.Logf("WAL group commit vs rename-per-commit: median %.1fx (rounds %.1f); %.3f durability barriers per commit",
		speedups[rounds/2], speedups, perCommit)
	if speedups[rounds/2] < minSpeedup {
		t.Errorf("WAL group commit is %.1fx the rename-per-commit rate, want at least %.0fx", speedups[rounds/2], minSpeedup)
	}
	if perCommit > maxBarriersPerCommit {
		t.Errorf("%.3f durability barriers per commit, want at most %.1f", perCommit, maxBarriersPerCommit)
	}
}
