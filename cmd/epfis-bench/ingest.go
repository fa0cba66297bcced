package main

// -suite ingest: the streaming-ingestion perf baselines (BENCH_ingest.json,
// via `make bench-ingest`).
//
// Three layers are measured:
//
//   - catalog mutation throughput: the WAL-backed group-committed store,
//     hammered by parallel writers over a realistically sized (~64 entry)
//     catalog, against the rewrite a rename-per-commit store would pay on
//     every commit: serialize that catalog, framelog.Replace it with .prev
//     kept, fsync the directory. The suite fails when the WAL path is not
//     at least -min-wal-speedup times the rewrite rate — the headline
//     number of the WAL design.
//   - incremental simulation: lrusim.Accum Feed cost per reference and the
//     cost of merging two 100k-reference shard accumulators. Feed's
//     amortized allocs/op is budgeted (-max-allocs-feed, default 2) and
//     enforced non-zero-exit like the serving-path budgets.
//   - the ingest route: POST /v1/ingest handler latency for a 4096-reference
//     batch, measured through ServeHTTP like the serve suite.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/curvefit"
	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/lrusim"
	"epfis/internal/service"
	"epfis/internal/stats"
)

// ingestBudgets is the ingest suite's regression gate.
type ingestBudgets struct {
	// FeedAllocsPerOpMax bounds Accum.Feed's amortized allocations per
	// 512-reference batch in steady state.
	FeedAllocsPerOpMax int64 `json:"feed_allocs_per_op_max"`
	// WALSpeedupMin is the minimum acceptable ratio of WAL group-commit
	// mutation throughput over the rename-per-commit rewrite rate.
	WALSpeedupMin float64 `json:"wal_speedup_min"`
}

// ingestReport is the BENCH_ingest.json document.
type ingestReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	NumCPU      int          `json:"num_cpu"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Benchmarks  []benchEntry `json:"benchmarks"`
	// WALMutationsPerSec is the WAL store's committed-durable mutation rate
	// under parallel writers; RenameRewritesPerSec is the rate of whole-
	// catalog rename-per-commit rewrites.
	WALMutationsPerSec   float64       `json:"wal_mutations_per_sec"`
	RenameRewritesPerSec float64       `json:"rename_rewrites_per_sec"`
	WALSpeedup           float64       `json:"wal_speedup_vs_rename"`
	FeedNsPerRef         float64       `json:"accum_feed_ns_per_ref"`
	Budgets              ingestBudgets `json:"budgets"`
	BudgetsMet           bool          `json:"budgets_met"`
}

// ingestBenchEntry builds one valid catalog entry; fmin varies so repeated
// Puts are real mutations, not byte-identical no-ops.
func ingestBenchEntry(table, column string, fmin int64) *stats.IndexStats {
	return &stats.IndexStats{
		Table: table, Column: column,
		T: 1000, N: 100_000, I: 1000,
		BMin: 12, BMax: 1000, FMin: fmin, C: 0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 12, Y: float64(fmin)}, {X: 1000, Y: 1000}}},
		GridPoints:  2,
		CollectedAt: time.Unix(0, 0).UTC(),
	}
}

// seedIngestCatalog installs ~64 entries so the store holds a
// realistically sized catalog (the rename baseline rewrites all of it).
func seedIngestCatalog(store *catalog.Store) error {
	for i := 0; i < 64; i++ {
		if _, err := store.Put(ingestBenchEntry("t", fmt.Sprintf("c%d", i), 2000)); err != nil {
			return err
		}
	}
	return nil
}

// benchRenameRewrite times the whole-catalog rewrite of a rename-per-commit
// store, serialized as such a store serializes its commits: encode the
// catalog, replace the file through an fsynced temp file with the previous
// generation kept, fsync the directory.
func benchRenameRewrite(c *stats.Catalog, path string) testing.BenchmarkResult {
	fsys := faultfs.OS()
	var buf bytes.Buffer
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := c.Save(&buf); err != nil {
				fatalf("ingest suite: encode catalog: %v", err)
			}
			if err := framelog.Replace(fsys, path, buf.Bytes(), path+".prev"); err != nil {
				fatalf("ingest suite: replace catalog: %v", err)
			}
			if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
				fatalf("ingest suite: sync dir: %v", err)
			}
		}
	})
}

// benchMutations hammers store.Put from parallel writers and reports the
// benchmark result; every iteration is one durably committed mutation.
func benchMutations(store *catalog.Store) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Group commit's throughput comes from batching concurrent writers:
		// run well more goroutines than cores so real groups form, the same
		// way a busy service has many in-flight mutations.
		b.SetParallelism(16)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				if _, err := store.Put(ingestBenchEntry("t", fmt.Sprintf("c%d", i%64), 2000+int64(i%971))); err != nil {
					fatalf("ingest suite: Put: %v", err)
				}
			}
		})
	})
}

func mutationsPerSec(r testing.BenchmarkResult) float64 {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return 1e9 / ns
}

// runIngestSuite measures the ingest-path benchmarks, writes the JSON
// baseline to out, and enforces the budgets. Returns false on a breach.
func runIngestSuite(out string, budgets ingestBudgets) bool {
	rep := ingestReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Budgets:     budgets,
	}

	dir, err := os.MkdirTemp("", "epfis-bench-ingest")
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	defer os.RemoveAll(dir)

	// --- Catalog mutation throughput: WAL group commit vs rename rewrite. ---
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		fatalf("ingest suite: %v", err)
	}
	walStore, err := catalog.OpenWAL(filepath.Join(dir, "wal", "catalog.json"), catalog.WALOptions{})
	if err != nil {
		fatalf("ingest suite: open WAL store: %v", err)
	}
	if err := seedIngestCatalog(walStore); err != nil {
		fatalf("ingest suite: seed WAL store: %v", err)
	}
	walRes := benchMutations(walStore)
	rep.Benchmarks = append(rep.Benchmarks, entry("catalog/put_wal_groupcommit", walRes))
	seeded, err := walStore.Snapshot().Catalog()
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	walStore.Close()

	renameRes := benchRenameRewrite(seeded, filepath.Join(dir, "rename-catalog.json"))
	rep.Benchmarks = append(rep.Benchmarks, entry("catalog/rewrite_rename_per_commit", renameRes))

	rep.WALMutationsPerSec = mutationsPerSec(walRes)
	rep.RenameRewritesPerSec = mutationsPerSec(renameRes)
	rep.WALSpeedup = rep.WALMutationsPerSec / rep.RenameRewritesPerSec

	// --- Incremental simulation: Accum feed and shard merge. ---
	const feedBatch = 512
	trace := lcgTrace(1<<22, 4096)
	accum := lrusim.NewAccum()
	var off int
	feedRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Warm past the growth phase so the measurement sees steady state.
		if accum.Total() == 0 {
			for i := 0; i < 64; i++ {
				accum.Feed(trace[off : off+feedBatch])
				off = (off + feedBatch) % (len(trace) - feedBatch)
			}
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if accum.Total() > lrusim.MaxAccumRefs-feedBatch {
				accum.Reset()
			}
			accum.Feed(trace[off : off+feedBatch])
			off = (off + feedBatch) % (len(trace) - feedBatch)
		}
	})
	fe := entry("lrusim/accum_feed_512", feedRes)
	rep.Benchmarks = append(rep.Benchmarks, fe)
	rep.FeedNsPerRef = fe.NsPerOp / feedBatch

	half := len(trace) / 2
	mergeRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a, c := lrusim.NewAccum(), lrusim.NewAccum()
			a.Feed(trace[:100_000])
			c.Feed(trace[half : half+100_000])
			b.StartTimer()
			a.Merge(c)
		}
	})
	rep.Benchmarks = append(rep.Benchmarks, entry("lrusim/accum_merge_100k", mergeRes))

	// --- The ingest route: one 4096-reference batch through ServeHTTP. ---
	store := catalog.NewStore()
	if err := seedIngestCatalog(store); err != nil {
		fatalf("ingest suite: %v", err)
	}
	srv, err := service.New(service.Config{Store: store, IngestQueue: 1 << 16})
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	defer srv.Close()
	payload, err := json.Marshal(service.IngestRequest{
		Table: "t", Column: "c0", Pages: lcgTrace(4096, 1000),
		T: 1000, N: 1 << 30, I: 1000, // N unreachable: pure feed cost, no refits
	})
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	body := &rewindBody{r: bytes.NewReader(payload)}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", body)
	w := &discardWriter{h: make(http.Header, 4)}
	postBatch := func() {
		w.reset()
		body.r.Seek(0, 0)
		req.Body = body
		srv.ServeHTTP(w, req)
		if w.status != http.StatusAccepted {
			fatalf("ingest suite: ingest status %d", w.status)
		}
	}
	postBatch()
	ingestRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			postBatch()
		}
	})
	ie := entry("service/ingest_post_4096", ingestRes)
	rep.Benchmarks = append(rep.Benchmarks, ie)

	// --- Budgets. ---
	rep.BudgetsMet = true
	if fe.AllocsPerOp > budgets.FeedAllocsPerOpMax {
		fmt.Fprintf(os.Stderr,
			"epfis-bench: BUDGET BREACH: lrusim/accum_feed_512 allocs/op = %d, budget %d\n",
			fe.AllocsPerOp, budgets.FeedAllocsPerOpMax)
		rep.BudgetsMet = false
	}
	if rep.WALSpeedup < budgets.WALSpeedupMin {
		fmt.Fprintf(os.Stderr,
			"epfis-bench: BUDGET BREACH: WAL mutation throughput %.1fx the rename rewrite, budget %.1fx\n",
			rep.WALSpeedup, budgets.WALSpeedupMin)
		rep.BudgetsMet = false
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatalf("ingest suite: %v", err)
	}
	fmt.Printf("wrote %s (wal %.0f mut/s, rename rewrite %.0f/s, speedup %.1fx, feed %.1f ns/ref)\n",
		out, rep.WALMutationsPerSec, rep.RenameRewritesPerSec, rep.WALSpeedup, rep.FeedNsPerRef)
	return rep.BudgetsMet
}
