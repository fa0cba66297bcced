package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRegistryOrderAndCoverage(t *testing.T) {
	exps := Registry()
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("registry entry %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("registry repeats %q", e.ID)
		}
		seen[e.ID] = true
	}
	want := []string{"table-2", "table-3", "figure-1"}
	for f := 2; f <= 21; f++ {
		want = append(want, fmt.Sprintf("figure-%d", f))
	}
	want = append(want,
		"summary-gwl", "summary-synthetic",
		"ablation-segments", "ablation-spacing", "ablation-fitter", "ablation-correction",
		"study-scan-size", "study-sorted-rids", "study-sargable", "study-policy", "study-contention",
	)
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, exps[i].ID, id)
		}
	}
}

func TestLookupExperiments(t *testing.T) {
	exps, err := LookupExperiments([]string{"figure-13", "table-2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].ID != "figure-13" || exps[1].ID != "table-2" {
		t.Fatalf("lookup order wrong: %v", exps)
	}
	if _, err := LookupExperiments([]string{"figure-99"}); err == nil {
		t.Error("unknown id did not error")
	}
}

// seriesIdentical demands bit-identical float values, not approximate ones:
// the engine's contract is that parallelism does not change the numbers.
func seriesIdentical(a, b []Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].X) != len(b[i].X) || len(a[i].Y) != len(b[i].Y) {
			return false
		}
		for j := range a[i].X {
			if a[i].X[j] != b[i].X[j] || a[i].Y[j] != b[i].Y[j] {
				return false
			}
		}
	}
	return true
}

func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	// Experiments through the orchestrator API at two parallelisms. The
	// cache is cleared between runs so the second run rebuilds everything;
	// figure series must be bit-identical and the rendered bytes equal.
	cases := []struct {
		name     string
		ids      []string // nil = the whole registry
		cfg      Config
		parallel int
	}{
		{"synthetic+gwl", []string{"figure-13", "figure-5"}, Config{Scale: 50, Scans: 30, Seed: 3}, 8},
		// Every experiment at the suite benchmarks' configuration.
		{"registry", nil, benchCfg, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exps := Registry()
			if tc.ids != nil {
				var err error
				if exps, err = LookupExperiments(tc.ids); err != nil {
					t.Fatal(err)
				}
			}
			run := func(parallel int) ([]RunReport, [][]byte) {
				ClearSharedCache()
				defer ClearSharedCache()
				eng := Engine{Parallel: parallel}
				reports := eng.RunAll(tc.cfg, exps)
				rendered := make([][]byte, len(reports))
				for i, r := range reports {
					if r.Err != nil {
						t.Fatalf("parallel=%d %s: %v", parallel, r.ID, r.Err)
					}
					var buf bytes.Buffer
					if err := r.Result.Render(&buf); err != nil {
						t.Fatalf("parallel=%d %s render: %v", parallel, r.ID, err)
					}
					rendered[i] = buf.Bytes()
				}
				return reports, rendered
			}
			serialReports, serialBytes := run(1)
			parallelReports, parallelBytes := run(tc.parallel)
			for i := range serialReports {
				id := serialReports[i].ID
				if sf, ok := serialReports[i].Result.(*FigureResult); ok {
					pf := parallelReports[i].Result.(*FigureResult)
					if !seriesIdentical(sf.Series, pf.Series) {
						t.Errorf("%s: series differ between parallel=1 and parallel=%d", id, tc.parallel)
					}
				}
				if !bytes.Equal(serialBytes[i], parallelBytes[i]) {
					t.Errorf("%s: rendered output differs between parallel=1 and parallel=%d", id, tc.parallel)
				}
			}
		})
	}
}

func TestEngineReportsAndProgress(t *testing.T) {
	var stubErr = errors.New("stub failure")
	const n = 9
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID: fmt.Sprintf("stub-%d", i),
			Run: func(Config) (Result, error) {
				time.Sleep(time.Millisecond)
				if i == 4 {
					return nil, stubErr
				}
				return &TableResult{ID: fmt.Sprintf("stub-%d", i)}, nil
			},
		}
	}
	var mu sync.Mutex
	var events []Progress
	eng := Engine{Parallel: 4, Progress: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}}
	reports := eng.RunAll(Config{}, exps)
	if len(reports) != n {
		t.Fatalf("got %d reports", len(reports))
	}
	for i, r := range reports {
		if r.ID != exps[i].ID {
			t.Errorf("report %d is %q, want %q (input order must be preserved)", i, r.ID, exps[i].ID)
		}
		if i == 4 {
			if !errors.Is(r.Err, stubErr) {
				t.Errorf("report 4 error = %v, want stub failure", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Result == nil {
			t.Errorf("report %d: err=%v result=%v", i, r.Err, r.Result)
		}
	}
	if len(events) != 2*n {
		t.Fatalf("got %d progress events, want %d", len(events), 2*n)
	}
	started := map[string]bool{}
	for _, ev := range events {
		if !ev.Done {
			started[ev.ID] = true
			continue
		}
		if !started[ev.ID] {
			t.Errorf("%s finished before starting", ev.ID)
		}
		if ev.ID == "stub-4" && !errors.Is(ev.Err, stubErr) {
			t.Errorf("stub-4 completion event missing error: %v", ev.Err)
		}
	}
}
