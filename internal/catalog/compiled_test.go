package catalog

import (
	"testing"
	"time"

	"epfis/internal/core"
	"epfis/internal/curvefit"
	"epfis/internal/stats"
)

func compiledTestEntry(table, column string, t int64) *stats.IndexStats {
	return &stats.IndexStats{
		Table: table, Column: column,
		T: t, N: 10 * t, I: t,
		BMin: 1, BMax: t, FMin: 5 * t, C: 0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 1, Y: float64(8 * t)}, {X: float64(t), Y: float64(t)},
		}},
		GridPoints:  2,
		CollectedAt: time.Unix(1700000000, 0).UTC(),
	}
}

// TestSnapshotCarriesCompiledEstimators: every committed entry has a compiled
// estimator whose answers are bit-identical to interpreted EstIO.
func TestSnapshotCarriesCompiledEstimators(t *testing.T) {
	st := NewStore()
	if _, err := st.Put(compiledTestEntry("orders", "key", 100)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	ce, ok := snap.Compiled("orders", "key")
	if !ok {
		t.Fatal("snapshot has no compiled estimator for installed entry")
	}
	e, err := snap.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	in := core.Input{B: 17, Sigma: 0.2, S: 0.5}
	want, err := core.EstIO(e, in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ce.Estimate(in)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("compiled %+v != interpreted %+v", got, want)
	}
	if _, ok := snap.Compiled("orders", "nope"); ok {
		t.Fatal("compiled estimator for missing entry")
	}
	if _, ok := snap.CompiledByKey("orders.key"); !ok {
		t.Fatal("CompiledByKey miss for installed entry")
	}
}

// TestCompiledEstimatorsReusedAcrossGenerations: committing an unrelated
// entry must not recompile untouched entries — the snapshot shares both the
// entry pointer and its compiled estimator copy-on-write.
func TestCompiledEstimatorsReusedAcrossGenerations(t *testing.T) {
	st := NewStore()
	if _, err := st.Put(compiledTestEntry("orders", "key", 100)); err != nil {
		t.Fatal(err)
	}
	first, _ := st.Snapshot().Compiled("orders", "key")
	if _, err := st.Put(compiledTestEntry("lineitem", "partkey", 64)); err != nil {
		t.Fatal(err)
	}
	second, _ := st.Snapshot().Compiled("orders", "key")
	if first != second {
		t.Fatal("unchanged entry was recompiled on an unrelated commit")
	}

	// Replacing the entry itself must swap in a fresh compiled estimator.
	if _, err := st.Put(compiledTestEntry("orders", "key", 200)); err != nil {
		t.Fatal(err)
	}
	third, ok := st.Snapshot().Compiled("orders", "key")
	if !ok || third == second {
		t.Fatalf("replaced entry kept its stale compiled estimator (ok=%v)", ok)
	}
}

// TestCompiledEstimatorsSurviveReloadAndRecovery: snapshots published by
// Reload and by Open's recovery fallback also carry compiled estimators.
func TestCompiledEstimatorsSurviveReloadAndRecovery(t *testing.T) {
	st, path := walFixture(t, WALOptions{}, nil)
	if _, err := st.Put(compiledTestEntry("orders", "key", 100)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// A second store opening the same file compiles at load time.
	st2, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Snapshot().Compiled("orders", "key"); !ok {
		t.Fatal("Open produced a snapshot without compiled estimators")
	}

	// Reload publishes a freshly compiled snapshot.
	if _, err := st2.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Snapshot().Compiled("orders", "key"); !ok {
		t.Fatal("Reload produced a snapshot without compiled estimators")
	}
}
