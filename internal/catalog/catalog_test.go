package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"epfis/internal/core"
	"epfis/internal/curvefit"
	"epfis/internal/stats"
)

// entry builds a valid catalog entry by hand; fmin lets tests vary the curve
// so concurrent readers can observe distinct generations.
func entry(table, column string, fmin int64) *stats.IndexStats {
	return &stats.IndexStats{
		Table:  table,
		Column: column,
		T:      100,
		N:      1000,
		I:      100,
		BMin:   12,
		BMax:   100,
		FMin:   fmin,
		C:      0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 12, Y: float64(fmin)},
			{X: 100, Y: 100},
		}},
		GridPoints:  2,
		CollectedAt: time.Unix(0, 0).UTC(),
	}
}

func TestStoreBasics(t *testing.T) {
	st := NewStore()
	if st.Generation() != 0 || st.Len() != 0 {
		t.Fatalf("empty store gen=%d len=%d", st.Generation(), st.Len())
	}
	if _, err := st.Get("orders", "key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store err = %v, want ErrNotFound", err)
	}

	gen, err := st.Put(entry("orders", "key", 500))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || st.Generation() != 1 {
		t.Fatalf("after first Put gen = %d / %d, want 1", gen, st.Generation())
	}
	if _, err := st.Put(entry("orders", "custno", 600)); err != nil {
		t.Fatal(err)
	}
	if got := st.Keys(); len(got) != 2 || got[0] != "orders.custno" || got[1] != "orders.key" {
		t.Fatalf("Keys = %v", got)
	}

	e, err := st.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	if e.FMin != 500 {
		t.Fatalf("FMin = %d, want 500", e.FMin)
	}

	// Put validates.
	bad := entry("x", "y", 500)
	bad.T = 0
	if _, err := st.Put(bad); err == nil {
		t.Fatal("Put of invalid entry succeeded")
	}

	ok, gen, err := st.Delete("orders", "key")
	if err != nil || !ok {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
	if gen != 3 || st.Len() != 1 {
		t.Fatalf("after delete gen=%d len=%d", gen, st.Len())
	}
	// Deleting a missing entry is a generation-preserving no-op.
	ok, gen, err = st.Delete("orders", "key")
	if err != nil || ok || gen != 3 {
		t.Fatalf("second Delete = (%v, %d, %v)", ok, gen, err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	st := NewStore()
	if _, err := st.Put(entry("t", "a", 500)); err != nil {
		t.Fatal(err)
	}
	old := st.Snapshot()
	if _, err := st.Put(entry("t", "b", 600)); err != nil {
		t.Fatal(err)
	}
	if old.Len() != 1 || old.Generation() != 1 {
		t.Fatalf("old snapshot mutated: len=%d gen=%d", old.Len(), old.Generation())
	}
	if st.Snapshot().Len() != 2 {
		t.Fatalf("new snapshot len = %d", st.Snapshot().Len())
	}
}

func TestPutDeepCopies(t *testing.T) {
	st := NewStore()
	mine := entry("t", "a", 500)
	if _, err := st.Put(mine); err != nil {
		t.Fatal(err)
	}
	mine.Curve.Knots[0].Y = -1 // caller keeps mutating its copy
	mine.FMin = -1
	got, err := st.Get("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if got.FMin != 500 || got.Curve.Knots[0].Y != 500 {
		t.Fatalf("stored entry aliases caller memory: %+v", got)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	st, path := walFixture(t, WALOptions{}, nil)
	if st.Len() != 0 {
		t.Fatalf("missing file should open empty, len = %d", st.Len())
	}
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(entry("orders", "custno", 600)); err != nil {
		t.Fatal(err)
	}

	// No stray temp files after atomic renames.
	names, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", de.Name())
		}
	}
	st.Close()

	re, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Close checkpointed both commits: the reopen replays nothing and
	// serves the checkpoint's LSN, the generation of the last commit.
	if re.Len() != 2 || re.Generation() != 2 {
		t.Fatalf("reopened store len=%d gen=%d", re.Len(), re.Generation())
	}
	e, err := re.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	if e.FMin != 500 {
		t.Fatalf("reloaded FMin = %d", e.FMin)
	}
}

// refresh rewrites the catalog file out-of-band, as an external LRU-Fit run
// would: plain stats JSON, no checkpoint lsn.
func refresh(t *testing.T, path string, entries ...*stats.IndexStats) {
	t.Helper()
	c := stats.NewCatalog()
	for _, e := range entries {
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestReload(t *testing.T) {
	// The default checkpoint interval keeps commits in the log tail past the
	// checkpoint, where a refresh must still win.
	st, path := walFixture(t, WALOptions{}, nil)
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	refresh(t, path, entry("orders", "key", 777), entry("lineitem", "partkey", 650))

	gen, err := st.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || st.Len() != 2 {
		t.Fatalf("after reload gen=%d len=%d", gen, st.Len())
	}
	fmin := func() int64 {
		t.Helper()
		e, err := st.Get("orders", "key")
		if err != nil {
			t.Fatal(err)
		}
		return e.FMin
	}
	if got := fmin(); got != 777 {
		t.Fatalf("reload did not swap entry: FMin = %d", got)
	}

	// A refresh after a checkpoint and a commit also wins.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(entry("orders", "key", 501)); err != nil {
		t.Fatal(err)
	}
	refresh(t, path, entry("orders", "key", 888))
	if _, err := st.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := fmin(); got != 888 || st.Len() != 1 {
		t.Fatalf("second refresh: FMin = %d, len = %d, want 888 and 1", got, st.Len())
	}

	// Reload checkpointed the adopted file, so a commit after it survives
	// a reload of the unchanged file.
	if _, err := st.Put(entry("orders", "key", 502)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := fmin(); got != 502 {
		t.Fatalf("reload of an unchanged file lost a commit: FMin = %d, want 502", got)
	}

	if _, err := NewStore().Reload(); !errors.Is(err, ErrNoPath) {
		t.Fatalf("Reload on in-memory store err = %v, want ErrNoPath", err)
	}
}

func TestReplaceAll(t *testing.T) {
	st := NewStore()
	if _, err := st.Put(entry("old", "gone", 500)); err != nil {
		t.Fatal(err)
	}
	c := stats.NewCatalog()
	if err := c.Put(entry("new", "a", 500)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(entry("new", "b", 600)); err != nil {
		t.Fatal(err)
	}
	gen, err := st.ReplaceAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || st.Len() != 2 {
		t.Fatalf("after ReplaceAll gen=%d len=%d", gen, st.Len())
	}
	if _, err := st.Get("old", "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old entry survived ReplaceAll: %v", err)
	}
}

// TestConcurrentReadersAndWriter is the subsystem's race test: many reader
// goroutines hammer Get + Est-IO against the store while one writer installs
// fresh statistics and periodically reloads from disk. Run with -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	st, _ := walFixture(t, WALOptions{}, nil)
	if _, err := st.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}

	const (
		readers      = 8
		writerRounds = 60
	)
	done := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := st.Snapshot()
				e, err := snap.Get("orders", "key")
				if err != nil {
					t.Errorf("reader Get: %v", err)
					return
				}
				f, err := core.EstimateFetches(e, 50, 0.1, 1)
				if err != nil {
					t.Errorf("reader estimate: %v", err)
					return
				}
				if f < 0 {
					t.Errorf("estimate = %g", f)
					return
				}
			}
		}()
	}

	for i := 0; i < writerRounds; i++ {
		fmin := int64(400 + i)
		if _, err := st.Put(entry("orders", "key", fmin)); err != nil {
			t.Errorf("writer Put: %v", err)
			break
		}
		if _, err := st.Put(entry("lineitem", "partkey", fmin)); err != nil {
			t.Errorf("writer Put: %v", err)
			break
		}
		if i%10 == 9 {
			if _, err := st.Reload(); err != nil {
				t.Errorf("writer Reload: %v", err)
				break
			}
		}
	}
	close(done)
	wg.Wait()

	if g := st.Generation(); g < writerRounds {
		t.Fatalf("generation = %d after %d writer rounds", g, writerRounds)
	}
}
