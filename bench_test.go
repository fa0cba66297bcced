// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, as indexed in DESIGN.md §4. Each bench regenerates its
// experiment end to end (dataset generation, statistics passes, 200-scan
// error sweep) and reports the per-algorithm maximum |error| as custom
// metrics, so `go test -bench=.` prints the same headline numbers the paper
// discusses. The experiment package shares datasets and suites through a
// build cache; these benches clear it every iteration so each op really is
// an end-to-end rebuild (internal/experiment's BenchmarkEngineSuite* measure
// the cached engine path).
//
// Benches default to a shape-preserving scaled run (Scale 25, 60 scans; see
// DESIGN.md §6); set -epfis.full to run at paper size.
package epfis_test

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"epfis/internal/baselines"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/experiment"
	"epfis/internal/gwl"
	"epfis/internal/lrusim"
	"epfis/internal/storage"
)

var fullSize = flag.Bool("epfis.full", false, "run benchmarks at paper size (N=10^6 synthetic, full GWL tables)")

func benchConfig() experiment.Config {
	if *fullSize {
		return experiment.Config{Scale: 1, Scans: 200, Seed: 1}
	}
	return experiment.Config{Scale: 25, Scans: 60, Seed: 1}
}

// reportSeries attaches each algorithm's maximum |error| to the benchmark
// output.
func reportSeries(b *testing.B, fig *experiment.FigureResult) {
	b.Helper()
	for _, s := range fig.Series {
		_, worst := s.MaxAbsY()
		b.ReportMetric(math.Abs(worst), "maxerr%/"+s.Name)
	}
}

func benchGWLFigure(b *testing.B, figure int) {
	cfg := benchConfig()
	if !*fullSize {
		cfg.Scale = 8 // GWL tables are smaller than the synthetic datasets
	}
	var fig *experiment.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		fig, err = experiment.RunGWLFigure(figure, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

func benchSyntheticFigure(b *testing.B, figure int) {
	spec, err := experiment.SyntheticSpecFor(figure)
	if err != nil {
		b.Fatal(err)
	}
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		fig, err = experiment.RunSyntheticFigure(spec, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkTable2GWLTables regenerates Table 2 (GWL table shapes).
func BenchmarkTable2GWLTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunTable2(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3GWLColumns regenerates Table 3 (column cardinalities and
// clustering factors), reporting the worst C calibration gap.
func BenchmarkTable3GWLColumns(b *testing.B) {
	cfg := benchConfig()
	if !*fullSize {
		cfg.Scale = 8
	}
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, spec := range gwl.Columns {
			recon, err := gwl.Reconstruct(spec, gwl.Options{Seed: cfg.Seed, Scale: cfg.Scale})
			if err != nil {
				b.Fatal(err)
			}
			if gap := math.Abs(recon.MeasuredC-spec.TargetC) * 100; gap > worst {
				worst = gap
			}
		}
	}
	b.ReportMetric(worst, "worstCgap%")
}

// BenchmarkFigure1FPFCurves regenerates the Figure 1 FPF curves.
func BenchmarkFigure1FPFCurves(b *testing.B) {
	cfg := benchConfig()
	if !*fullSize {
		cfg.Scale = 8
	}
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		if _, err := experiment.RunFigure1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 2-9: GWL error sweeps.
func BenchmarkFigure2(b *testing.B) { benchGWLFigure(b, 2) }
func BenchmarkFigure3(b *testing.B) { benchGWLFigure(b, 3) }
func BenchmarkFigure4(b *testing.B) { benchGWLFigure(b, 4) }
func BenchmarkFigure5(b *testing.B) { benchGWLFigure(b, 5) }
func BenchmarkFigure6(b *testing.B) { benchGWLFigure(b, 6) }
func BenchmarkFigure7(b *testing.B) { benchGWLFigure(b, 7) }
func BenchmarkFigure8(b *testing.B) { benchGWLFigure(b, 8) }
func BenchmarkFigure9(b *testing.B) { benchGWLFigure(b, 9) }

// Figures 10-21: synthetic error sweeps (theta x K grid).
func BenchmarkFigure10(b *testing.B) { benchSyntheticFigure(b, 10) }
func BenchmarkFigure11(b *testing.B) { benchSyntheticFigure(b, 11) }
func BenchmarkFigure12(b *testing.B) { benchSyntheticFigure(b, 12) }
func BenchmarkFigure13(b *testing.B) { benchSyntheticFigure(b, 13) }
func BenchmarkFigure14(b *testing.B) { benchSyntheticFigure(b, 14) }
func BenchmarkFigure15(b *testing.B) { benchSyntheticFigure(b, 15) }
func BenchmarkFigure16(b *testing.B) { benchSyntheticFigure(b, 16) }
func BenchmarkFigure17(b *testing.B) { benchSyntheticFigure(b, 17) }
func BenchmarkFigure18(b *testing.B) { benchSyntheticFigure(b, 18) }
func BenchmarkFigure19(b *testing.B) { benchSyntheticFigure(b, 19) }
func BenchmarkFigure20(b *testing.B) { benchSyntheticFigure(b, 20) }
func BenchmarkFigure21(b *testing.B) { benchSyntheticFigure(b, 21) }

// BenchmarkMaxErrorSummary reproduces the §5.2 per-algorithm maximum-error
// summary across all twelve synthetic figures.
func BenchmarkMaxErrorSummary(b *testing.B) {
	var sum *experiment.TableResult
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		var figs []*experiment.FigureResult
		for _, spec := range experiment.SyntheticFigures {
			fig, err := experiment.RunSyntheticFigure(spec, benchConfig())
			if err != nil {
				b.Fatal(err)
			}
			figs = append(figs, fig)
		}
		sum = experiment.MaxErrorSummary("summary-synthetic", "bench", figs)
	}
	if sum != nil {
		for _, row := range sum.Rows {
			var v float64
			fmt.Sscanf(row[1], "%f", &v)
			b.ReportMetric(v, "maxerr%/"+row[0])
		}
	}
}

// BenchmarkSegmentCountAblation reproduces the §4.1 segment-count study.
func BenchmarkSegmentCountAblation(b *testing.B) {
	cfg := benchConfig()
	cfg.Scans = 40
	var fig *experiment.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		fig, err = experiment.RunSegmentCountAblation(cfg, []int{1, 2, 4, 6, 8, 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	s := fig.Series[0]
	for i := range s.X {
		b.ReportMetric(s.Y[i], fmt.Sprintf("meanerr%%/seg%d", int(s.X[i])))
	}
}

// BenchmarkSpacingAblation compares arithmetic vs geometric modeling grids.
func BenchmarkSpacingAblation(b *testing.B) {
	cfg := benchConfig()
	cfg.Scans = 40
	var fig *experiment.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		fig, err = experiment.RunSpacingAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		b.ReportMetric(s.Y[0], "meanerr%/"+s.Name[:4])
	}
}

// BenchmarkCorrectionAblation measures the Equation-1 correction's impact.
func BenchmarkCorrectionAblation(b *testing.B) {
	cfg := benchConfig()
	cfg.Scans = 40
	var fig *experiment.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		fig, err = experiment.RunCorrectionAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, s := range fig.Series {
		m := 0.0
		for _, y := range s.Y {
			m += math.Abs(y)
		}
		b.ReportMetric(m/float64(len(s.Y)), fmt.Sprintf("meanerr%%/v%d", i))
	}
}

// BenchmarkSortedRIDStudy measures the §6 sorted-RID extension experiment.
func BenchmarkSortedRIDStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		if _, err := experiment.RunSortedRIDStudy(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyStudy measures the LRU-vs-clock sensitivity experiment.
func BenchmarkPolicyStudy(b *testing.B) {
	cfg := benchConfig()
	cfg.Scans = 30
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		if _, err := experiment.RunPolicyStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionStudy measures the shared-pool contention experiment.
func BenchmarkContentionStudy(b *testing.B) {
	cfg := benchConfig()
	cfg.Scans = 40
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		if _, err := experiment.RunContentionStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLRUFitPass measures the cost of the one-time statistics pass
// itself (the Mattson stack simulation + curve fit) on a 1M-reference trace
// — the paper's claim that LRU-Fit piggybacks on statistics collection.
func BenchmarkLRUFitPass(b *testing.B) {
	const pages = 25_000
	trace := make(lrusim.Trace, 1_000_000)
	state := uint64(12345)
	for i := range trace {
		state = state*6364136223846793005 + 1442695040888963407
		trace[i] = storage.PageID((state >> 33) % pages)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lrusim.Analyze(trace)
	}
	b.SetBytes(int64(len(trace) * 4))
}

// BenchmarkEstIOCall measures the per-plan estimation cost the optimizer
// pays — the paper's claim that Est-IO "only involves computing a simple
// formula".
func BenchmarkEstIOCall(b *testing.B) {
	ds, err := datagen.GenerateDataset(datagen.Config{
		Name: "bench", N: 40_000, I: 400, R: 40, K: 0.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	suite, err := experiment.NewSuite(ds, experiment.MetaFor("bench", ds), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	est := suite.Estimators[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := baselines.Params{
			T: suite.Meta.T, N: suite.Meta.N, I: suite.Meta.I,
			B:     int64(1 + i%int(ds.T)),
			Sigma: 0.001 + float64(i%1000)/1001,
			S:     1,
		}
		if _, err := est.Estimate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSargableStudy measures the urn-model validation experiment.
func BenchmarkSargableStudy(b *testing.B) {
	cfg := benchConfig()
	cfg.Scans = 60
	for i := 0; i < b.N; i++ {
		experiment.ClearSharedCache()
		if _, err := experiment.RunSargableStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
