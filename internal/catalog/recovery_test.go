package catalog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epfis/internal/faultfs"
	"epfis/internal/stats"
)

// openedWith builds a file-backed store whose checkpoint and retained
// previous checkpoint differ: the previous one holds only orders.key, the
// current one also lineitem.partkey, and the log rotated away between them
// holds the lineitem.partkey commit.
func openedWith(t *testing.T) (*Store, string) {
	t.Helper()
	st, path := walFixture(t, WALOptions{}, nil)
	for _, e := range []*stats.IndexStats{entry("orders", "key", 500), entry("lineitem", "partkey", 600)} {
		if _, err := st.Put(e); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return st, path
}

func TestWriteLeavesPrevGeneration(t *testing.T) {
	_, path := openedWith(t)

	// Main file holds both entries; .prev holds the one-entry generation.
	main, _, _, err := loadCheckpoint(faultfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if main.Len() != 2 {
		t.Fatalf("main has %d entries", main.Len())
	}
	prev, _, _, err := loadCheckpoint(faultfs.OS(), PrevPath(path))
	if err != nil {
		t.Fatalf("no retained previous generation: %v", err)
	}
	if prev.Len() != 1 {
		t.Fatalf("prev has %d entries, want 1", prev.Len())
	}
}

func TestTrailerDetectsBitFlip(t *testing.T) {
	st, path := walFixture(t, WALOptions{}, nil)
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the JSON payload: still valid JSON, still a
	// valid entry — only the checksum can notice.
	i := bytes.Index(data, []byte(`"pages": 100`))
	if i < 0 {
		t.Fatalf("payload layout changed:\n%s", data)
	}
	data[i+len(`"pages": 10`)] = '1'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadCheckpoint(faultfs.OS(), path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped load err = %v, want ErrCorrupt", err)
	}
}

func TestOpenRecoversFromCorruptMain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-length", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-after-crash", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, path := openedWith(t)
			st.Close()
			tc.corrupt(t, path)

			st, err := OpenWAL(path, WALOptions{})
			if err != nil {
				t.Fatalf("Open did not recover: %v", err)
			}
			defer st.Close()
			if !st.Recovered() {
				t.Fatal("Recovered() = false after fallback")
			}
			// The .prev checkpoint held only orders.key; the log rotated
			// away with it supplies lineitem.partkey.
			if st.Len() != 2 {
				t.Fatalf("recovered %d entries, want every acknowledged one (2)", st.Len())
			}
			for _, k := range []string{"orders.key", "lineitem.partkey"} {
				if _, ok := st.Snapshot().Lookup(k); !ok {
					t.Fatalf("recovered store missing %s", k)
				}
			}
			// The checkpoint written at open did not retain the file that
			// failed to verify: .prev is still the verified checkpoint.
			prev, _, _, err := loadCheckpoint(faultfs.OS(), PrevPath(path))
			if err != nil {
				t.Fatalf(".prev no longer verifies after the recovered open: %v", err)
			}
			if prev.Len() != 1 {
				t.Fatalf(".prev holds %d entries, want the one-entry checkpoint", prev.Len())
			}
			// The recovered store must be writable again.
			if _, err := st.Put(entry("fresh", "col", 700)); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
		})
	}
}

func TestRecoveryFromPrevReplaysRotatedLog(t *testing.T) {
	// Put a, checkpoint, put b, checkpoint, put c: b lives only in the log
	// rotated away by the second checkpoint. With the checkpoint corrupt,
	// neither Reload nor a reopen may drop it. Automatic checkpoints are
	// off, so Close leaves the corrupt checkpoint in place.
	st, path := walFixture(t, WALOptions{CheckpointEvery: -1}, nil)
	for i, col := range []string{"a", "b", "c"} {
		if _, err := st.Put(entry("t", col, int64(500+i))); err != nil {
			t.Fatal(err)
		}
		if col != "c" {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := stateOf(st.Snapshot())
	if err := os.WriteFile(path, []byte("not a catalog"), 0o644); err != nil {
		t.Fatal(err)
	}
	gen := st.Generation()
	if _, err := st.Reload(); err == nil {
		t.Fatal("Reload accepted a corrupt checkpoint")
	}
	if got := stateOf(st.Snapshot()); !statesEqual(got, want) || st.Generation() != gen {
		t.Fatalf("failed reload published %v at gen %d, want %v at gen %d", got, st.Generation(), want, gen)
	}
	st.Close()
	prev, err := os.ReadFile(PrevPath(path))
	if err != nil {
		t.Fatal(err)
	}

	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := stateOf(re.Snapshot()); !re.Recovered() || !statesEqual(got, want) {
		t.Fatalf("reopen recovered=%v with %v, want true with %v", re.Recovered(), got, want)
	}
	re.Close()

	// Without the rotated log, the current one starts past the previous
	// checkpoint: recovery must refuse it, and leave it as it is.
	if err := os.WriteFile(path, []byte("not a catalog"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(PrevPath(path), prev, 0o644); err != nil {
		t.Fatal(err)
	}
	walPath := re.WALPath()
	if err := os.Remove(PrevPath(walPath)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path, WALOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a log gap err = %v, want ErrCorrupt", err)
	}
	if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused open rewrote the log (%v)", err)
	}
}

func TestOpenAdoptsRefreshedFile(t *testing.T) {
	// The refresh workflow: stop the service, rewrite the catalog file
	// outside it (as `epfis gen` does), restart. Close checkpointed, so the
	// log is a bare header past lsn 0; the open must serve the file whole,
	// and keep the commits made after it.
	st, path := walFixture(t, WALOptions{}, nil)
	for _, e := range []*stats.IndexStats{entry("orders", "key", 500), entry("orders", "custno", 510)} {
		if _, err := st.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(entry("orders", "key", 520)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	refresh(t, path, entry("orders", "key", 777), entry("lineitem", "partkey", 650))
	want := map[string]int64{"orders.key": 777, "lineitem.partkey": 650}

	// No checkpoint on Close: the refreshed file stays the retained one.
	re, err := OpenWAL(path, WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("open over a refreshed file: %v", err)
	}
	if got := stateOf(re.Snapshot()); !statesEqual(got, want) || re.Recovered() {
		t.Fatalf("open served %v (recovered=%v), want the refreshed file %v", got, re.Recovered(), want)
	}
	if _, err := re.Put(entry("orders", "custno", 530)); err != nil {
		t.Fatal(err)
	}
	want["orders.custno"] = 530
	re.Close()

	// The commit survives a reopen, and a recovery from the retained
	// refreshed file once the checkpoint over it is corrupt.
	for _, corrupt := range []bool{false, true} {
		if corrupt {
			if err := os.WriteFile(path, []byte("not a catalog"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatalf("reopen (corrupt=%v): %v", corrupt, err)
		}
		got, recovered := stateOf(re.Snapshot()), re.Recovered()
		re.Close()
		if !statesEqual(got, want) || recovered != corrupt {
			t.Fatalf("reopen (corrupt=%v) served %v (recovered=%v), want %v", corrupt, got, recovered, want)
		}
	}
}

func TestReloadAdoptionFailsUntilCheckpointed(t *testing.T) {
	// Reload adopts a refreshed file only once a checkpoint replaces it:
	// otherwise a reopen would adopt the file again over the commits made
	// since. A failed checkpoint fails the Reload, and the next commit
	// retries it.
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, path := walFixture(t, WALOptions{}, inj)
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	refresh(t, path, entry("orders", "key", 777))
	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Path: "catalog.json"})
	if _, err := st.Reload(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Reload with a failed checkpoint = %v, want ErrInjected", err)
	}
	if _, err := st.Put(entry("orders", "custno", 530)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := map[string]int64{"orders.key": 777, "orders.custno": 530}
	if got := stateOf(re.Snapshot()); !statesEqual(got, want) {
		t.Fatalf("reopen served %v, want %v", got, want)
	}
}

func TestOpenErrorsWhenMainAndPrevCorrupt(t *testing.T) {
	st, path := openedWith(t)
	st.Close()
	for _, p := range []string{path, PrevPath(path)} {
		if err := os.WriteFile(p, []byte("not a catalog"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenWAL(path, WALOptions{}); err == nil {
		t.Fatal("Open accepted a catalog with both generations corrupt")
	}
}

func TestOpenMissingBothStartsEmpty(t *testing.T) {
	st, _ := walFixture(t, WALOptions{}, nil)
	if st.Len() != 0 || st.Recovered() {
		t.Fatalf("fresh store: len=%d recovered=%v", st.Len(), st.Recovered())
	}
}

func TestLegacyFileWithoutTrailerLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	refresh(t, path, entry("orders", "key", 500)) // plain stats format, no trailer
	st, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 || st.Recovered() {
		t.Fatalf("legacy load: len=%d recovered=%v", st.Len(), st.Recovered())
	}
}

func TestTraileredFileLoadsWithPlainStatsLoader(t *testing.T) {
	_, path := openedWith(t)
	c, err := stats.LoadFile(path)
	if err != nil {
		t.Fatalf("stats.LoadFile on trailered file: %v", err)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCommitAbortsOnInjectedWriteFaults(t *testing.T) {
	// Write and fsync faults strike the log append: the commit aborts whole.
	// The other operations run only in the checkpoint after every commit,
	// once the commit is already durable: it must succeed and survive.
	for _, op := range []faultfs.Op{
		faultfs.OpCreate, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpClose, faultfs.OpRename, faultfs.OpSyncDir,
	} {
		t.Run(string(op), func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			st, path := walFixture(t, WALOptions{CheckpointEvery: 1}, inj)
			if _, err := st.Put(entry("orders", "key", 500)); err != nil {
				t.Fatal(err)
			}

			inj.Add(faultfs.Rule{Op: op, Count: -1})
			_, err := st.Put(entry("lineitem", "partkey", 600))
			if inj.Injected() == 0 {
				t.Fatalf("no %s fault fired", op)
			}
			aborts := op == faultfs.OpWrite || op == faultfs.OpSync
			if aborts {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("Put under %s fault = %v, want ErrInjected", op, err)
				}
				// In-memory view unchanged: the commit aborted whole.
				if st.Len() != 1 || st.Generation() != 1 {
					t.Fatalf("store mutated by failed commit: len=%d gen=%d", st.Len(), st.Generation())
				}
			} else if err != nil {
				t.Fatalf("Put with a %s fault in its checkpoint = %v, want success", op, err)
			}
			// On-disk state still serves the last good generation, and an
			// acknowledged commit survives.
			inj.Reset()
			st.Close()
			st2, err := OpenWAL(path, WALOptions{})
			if err != nil {
				t.Fatalf("reopen after %s fault: %v", op, err)
			}
			defer st2.Close()
			if _, err := st2.Get("orders", "key"); err != nil {
				t.Fatalf("last good generation lost after %s fault: %v", op, err)
			}
			if _, err := st2.Get("lineitem", "partkey"); err != nil && !aborts {
				t.Fatalf("acknowledged commit lost after %s fault: %v", op, err)
			}
		})
	}
}

func TestPartialWriteNeverPublishes(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, path := walFixture(t, WALOptions{}, inj)
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Mode: faultfs.ModePartial})
	if _, err := st.Put(entry("lineitem", "partkey", 600)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn write err = %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("torn commit published: len = %d", st.Len())
	}
	inj.Reset()
	st.Close()
	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatalf("log damaged by torn write: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened store has %d entries", re.Len())
	}
}

func TestFsyncHappensBeforeRename(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, _ := walFixture(t, WALOptions{}, inj)
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	mark := len(inj.Trace())
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	trace := inj.Trace()[mark:]
	var syncAt, renameAt, dirSyncAt int
	for i, e := range trace {
		op := strings.Fields(e)[0]
		switch {
		case op == "sync" && syncAt == 0:
			syncAt = i + 1
		case op == "rename" && renameAt == 0:
			renameAt = i + 1
		case op == "syncdir" && dirSyncAt == 0:
			dirSyncAt = i + 1
		}
	}
	if syncAt == 0 || renameAt == 0 || dirSyncAt == 0 {
		t.Fatalf("trace missing sync/rename/syncdir: %v", trace)
	}
	if !(syncAt < renameAt && renameAt < dirSyncAt) {
		t.Fatalf("durability order violated: sync@%d rename@%d syncdir@%d", syncAt, renameAt, dirSyncAt)
	}
}

func TestReloadRejectsCorruptFileAndKeepsSnapshot(t *testing.T) {
	st, path := openedWith(t)
	gen := st.Generation()

	if err := os.WriteFile(path, []byte(`{"version":1,"entries":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Reload(); err == nil {
		t.Fatal("Reload accepted a corrupt file")
	}
	if st.Generation() != gen || st.Len() != 2 {
		t.Fatalf("snapshot changed by failed reload: gen=%d len=%d", st.Generation(), st.Len())
	}
	if _, err := st.Get("orders", "key"); err != nil {
		t.Fatal("last good snapshot lost after failed reload")
	}
}
