// Command epfis-bench measures the repository's perf-tracked paths and
// writes machine-readable baselines. Suites are selected with -suite:
//
// -suite cluster (BENCH_cluster.json, via `make bench-cluster`) measures
// the cluster data plane over an in-process multi-node cluster: estimate
// cost at a node that does not own the key against one that does (gating
// that the non-owner allocates no more), quorum PUT latency with and
// without a faultnet-slowed straggler peer (gating the fast-ack property),
// and delta anti-entropy bytes-on-wire for a 1-key divergence against the
// full snapshot stream. See cluster.go.
//
// -suite serve (BENCH_serve.json, via `make bench-serve`) measures the
// estimation service's serving path at the handler level — single estimate,
// cache hit, cache miss, batch64, and parallel clients — and enforces the
// committed allocation budgets (-max-allocs-single, -max-allocs-batch64),
// exiting non-zero on a breach so CI fails on serving-path allocation
// regressions.
//
// -suite experiments (BENCH_experiments.json, via `make bench-json`)
// measures the experiment engine:
//
//   - microbenchmarks of the pooled Mattson simulator against the
//     fresh-structures legacy path, and of the pooled parallel Measure
//     against the per-scan-allocation legacy loop;
//   - one warm-cache error sweep (the engine's marginal per-figure cost);
//   - wall-clock for the full experiment suite through the engine at
//     -parallel 1 and -parallel 4, plus an uncached baseline that drops the
//     shared build cache between experiments (the pre-engine behavior);
//   - a determinism bit: the parallel-1 and parallel-4 suite runs must
//     render byte-identical output.
//
// Benchmarks run through testing.Benchmark, so numbers come from the std
// benchmark machinery (auto-scaled iteration counts), not from parsing
// benchmark text output. num_cpu and gomaxprocs are recorded so readers can
// judge the parallel numbers: on a single-CPU machine the parallel-4 run
// cannot beat serial, only match it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"epfis/internal/datagen"
	"epfis/internal/experiment"
	"epfis/internal/lrusim"
	"epfis/internal/storage"
	"epfis/internal/workload"
)

type benchEntry struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type suiteReport struct {
	Experiments                 int     `json:"experiments"`
	Scale                       int     `json:"scale"`
	Scans                       int     `json:"scans"`
	NumCPU                      int     `json:"num_cpu"`
	WallSecondsParallel1        float64 `json:"wall_seconds_parallel_1"`
	WallSecondsParallel4        float64 `json:"wall_seconds_parallel_4"`
	WallSecondsUncachedBaseline float64 `json:"wall_seconds_uncached_baseline"`
	// SpeedupParallel4VsSerial is null on a single-CPU host, where the
	// parallel-4 run cannot beat serial and a "speedup" figure would be
	// scheduler noise presented as signal; the Note says why.
	SpeedupParallel4VsSerial       *float64 `json:"speedup_parallel_4_vs_serial"`
	SpeedupParallel4VsSerialNote   string   `json:"speedup_parallel_4_vs_serial_note,omitempty"`
	SpeedupEngineVsUncached        float64  `json:"speedup_engine_vs_uncached"`
	DeterministicAcrossParallelism bool     `json:"deterministic_across_parallelism"`
}

type report struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	NumCPU      int          `json:"num_cpu"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Benchmarks  []benchEntry `json:"benchmarks"`
	Suite       suiteReport  `json:"suite"`
}

func entry(name string, r testing.BenchmarkResult) benchEntry {
	return benchEntry{
		Name:        name,
		Ops:         r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// lcgTrace builds a deterministic pseudo-random reference trace without
// importing the test-only helpers of internal/lrusim.
func lcgTrace(n int, pages uint64) lrusim.Trace {
	trace := make(lrusim.Trace, n)
	state := uint64(12345)
	for i := range trace {
		state = state*6364136223846793005 + 1442695040888963407
		trace[i] = storage.PageID((state >> 33) % pages)
	}
	return trace
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "epfis-bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		suite = flag.String("suite", "experiments", "which suite to run: experiments | serve | ingest | cluster")
		out   = flag.String("out", "", "output path for the JSON baseline (default BENCH_<suite>.json)")
		scale = flag.Int("scale", 25, "dataset scale divisor for the suite runs")
		scans = flag.Int("scans", 20, "scans per error sweep in the suite runs")

		maxAllocsSingle = flag.Int64("max-allocs-single", 8,
			"serve suite: fail when serve/single exceeds this allocs/op")
		maxAllocsBatch64 = flag.Int64("max-allocs-batch64", 64,
			"serve suite: fail when serve/batch64 exceeds this allocs/op")

		maxAllocsFeed = flag.Int64("max-allocs-feed", 2,
			"ingest suite: fail when lrusim/accum_feed_512 exceeds this amortized allocs/op")
		minWALSpeedup = flag.Float64("min-wal-speedup", 10,
			"ingest suite: fail when WAL mutation throughput is below this multiple of the rename-per-commit baseline")

		maxQuorumSlowdown = flag.Float64("max-slowdown-quorum", 2,
			"cluster suite: fail when a quorum PUT with one slowed non-owner peer exceeds this multiple of the no-fault latency")
		maxDeltaFraction = flag.Float64("max-delta-fraction", 0.10,
			"cluster suite: fail when a 1-key delta sync moves more than this fraction of the full snapshot's bytes")
	)
	flag.Parse()

	switch *suite {
	case "serve":
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		if !runServeSuite(*out, allocBudgets{
			SingleAllocsPerOpMax:  *maxAllocsSingle,
			Batch64AllocsPerOpMax: *maxAllocsBatch64,
		}) {
			os.Exit(1)
		}
		return
	case "ingest":
		if *out == "" {
			*out = "BENCH_ingest.json"
		}
		if !runIngestSuite(*out, ingestBudgets{
			FeedAllocsPerOpMax: *maxAllocsFeed,
			WALSpeedupMin:      *minWALSpeedup,
		}) {
			os.Exit(1)
		}
		return
	case "cluster":
		if *out == "" {
			*out = "BENCH_cluster.json"
		}
		if !runClusterSuite(*out, clusterBudgets{
			QuorumSlowdownMax:     *maxQuorumSlowdown,
			DeltaBytesFractionMax: *maxDeltaFraction,
		}) {
			os.Exit(1)
		}
		return
	case "experiments":
		if *out == "" {
			*out = "BENCH_experiments.json"
		}
	default:
		fatalf("unknown -suite %q (want experiments, serve, ingest, or cluster)", *suite)
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	// --- Simulator microbenchmarks: pooled Scratch vs fresh structures. ---
	trace := lcgTrace(100_000, 2_000)
	scratch := lrusim.NewScratch()
	rep.Benchmarks = append(rep.Benchmarks,
		entry("lrusim/scratch_analyze_100k", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scratch.Analyze(trace)
			}
		})),
		entry("lrusim/tree_analyze_legacy_100k", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				(lrusim.TreeSimulator{}).Run(trace).FetchCurve()
			}
		})),
	)

	// --- Measure: pooled parallel path vs the per-scan-allocation loop. ---
	// Same shape as the internal/workload Measure benchmarks, so the two
	// harnesses report comparable numbers.
	ds, err := datagen.GenerateDataset(datagen.Config{
		Name: "bench", N: 100_000, I: 1_000, R: 20, K: 0.2, Seed: 1,
	})
	if err != nil {
		fatalf("dataset: %v", err)
	}
	gen, err := workload.NewGenerator(ds, 7)
	if err != nil {
		fatalf("generator: %v", err)
	}
	benchScans := gen.Mix(200, 0.5)
	rep.Benchmarks = append(rep.Benchmarks,
		entry("workload/measure_200scans_pooled", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				workload.Measure(ds, benchScans)
			}
		})),
		entry("workload/measure_200scans_legacy", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := make([]workload.Measured, len(benchScans))
				for j, s := range benchScans {
					tr := ds.SliceTrace(s.Lo, s.Hi)
					out[j] = workload.Measured{Scan: s, Curve: (lrusim.TreeSimulator{}).Run(tr).FetchCurve()}
				}
			}
		})),
	)

	// --- Warm-cache error sweep: the engine's marginal per-figure cost once
	// the dataset and suite are cached (the figure-level cache is bypassed by
	// calling the runner directly, so the sweep itself runs every op). ---
	cfg := experiment.Config{Scale: *scale, Scans: *scans, Seed: 1}
	experiment.ClearSharedCache()
	spec13, err := experiment.SyntheticSpecFor(13)
	if err != nil {
		fatalf("spec: %v", err)
	}
	rep.Benchmarks = append(rep.Benchmarks,
		entry("experiment/figure13_sweep_warm_cache", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunSyntheticFigure(spec13, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})),
	)

	// --- Full-suite wall clock: engine at parallel 1 and 4, then the
	// uncached per-experiment baseline. Rendered bytes from the two engine
	// runs feed the determinism bit. ---
	exps := experiment.Registry()
	rep.Suite = suiteReport{Experiments: len(exps), Scale: *scale, Scans: *scans, NumCPU: rep.NumCPU}
	runSuite := func(parallel int) (float64, [][]byte) {
		experiment.ClearSharedCache()
		defer experiment.ClearSharedCache()
		eng := experiment.Engine{Parallel: parallel}
		start := time.Now()
		reports := eng.RunAll(cfg, exps)
		elapsed := time.Since(start).Seconds()
		rendered := make([][]byte, len(reports))
		for i, r := range reports {
			if r.Err != nil {
				fatalf("suite (parallel=%d) %s: %v", parallel, r.ID, r.Err)
			}
			var buf bytes.Buffer
			if err := r.Result.Render(&buf); err != nil {
				fatalf("render %s: %v", r.ID, err)
			}
			rendered[i] = buf.Bytes()
		}
		return elapsed, rendered
	}
	var serialOut, parallelOut [][]byte
	rep.Suite.WallSecondsParallel1, serialOut = runSuite(1)
	rep.Suite.WallSecondsParallel4, parallelOut = runSuite(4)
	rep.Suite.DeterministicAcrossParallelism = true
	for i := range serialOut {
		if !bytes.Equal(serialOut[i], parallelOut[i]) {
			rep.Suite.DeterministicAcrossParallelism = false
			fmt.Fprintf(os.Stderr, "epfis-bench: %s renders differently at parallel 1 vs 4\n", exps[i].ID)
		}
	}

	start := time.Now()
	for _, e := range exps {
		experiment.ClearSharedCache()
		if _, err := e.Run(cfg); err != nil {
			fatalf("uncached baseline %s: %v", e.ID, err)
		}
	}
	experiment.ClearSharedCache()
	rep.Suite.WallSecondsUncachedBaseline = time.Since(start).Seconds()

	if rep.NumCPU > 1 {
		speedup := rep.Suite.WallSecondsParallel1 / rep.Suite.WallSecondsParallel4
		rep.Suite.SpeedupParallel4VsSerial = &speedup
	} else {
		rep.Suite.SpeedupParallel4VsSerialNote = "n/a: single-CPU host, parallel-4 cannot beat serial"
	}
	rep.Suite.SpeedupEngineVsUncached = rep.Suite.WallSecondsUncachedBaseline / rep.Suite.WallSecondsParallel1

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}

	fmt.Printf("epfis-bench: wrote %s\n", *out)
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-36s %12.0f ns/op %8d allocs/op %12d B/op\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}
	s := rep.Suite
	fmt.Printf("  suite (%d experiments, scale=%d, scans=%d): parallel1=%.2fs parallel4=%.2fs uncached=%.2fs\n",
		s.Experiments, s.Scale, s.Scans, s.WallSecondsParallel1, s.WallSecondsParallel4, s.WallSecondsUncachedBaseline)
	p4 := "n/a"
	if s.SpeedupParallel4VsSerial != nil {
		p4 = fmt.Sprintf("%.2fx", *s.SpeedupParallel4VsSerial)
	}
	fmt.Printf("  speedup: engine-vs-uncached %.2fx, parallel4-vs-serial %s (num_cpu=%d), deterministic=%v\n",
		s.SpeedupEngineVsUncached, p4, rep.NumCPU, s.DeterministicAcrossParallelism)
	if !s.DeterministicAcrossParallelism {
		os.Exit(1)
	}
}
