// Command bench is the estimation service's end-to-end benchmark. It starts
// the real service.Server in process behind real loopback sockets, drives
// one of four seeded closed-loop workloads against it, checks every answer
// bit for bit against offline Est-IO, and prints each metric by name:
//
//	<workload> <metric> <value> <unit> n=<samples>
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json, or with -trace 1 its per-layer metrics.
//
// A traced run (-trace 1) splits the window into an untraced and a traced
// half, records benchmark-owned spans at the client, around ServeHTTP,
// around each node's cluster transport and under each WAL, polls the
// servers' own stage spans from /debug/traces, times each layer alone in
// process (the ladder), and writes the spans to -spans.
//
// See README.md for the workloads, the metrics and the committed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// host identifies the machine a report was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// report is the -out document.
type report struct {
	Host    host        `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	Runs    [][]*result `json:"runs"` // [repeat][workload]
}

// summary is the machine-readable last line of standard output.
type summary struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]jsonVal `json:"metrics"`
	missing   []string
}

type jsonVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", allWorkloads, "workload to run: "+strings.Join(workloadNames, ", ")+" or "+allWorkloads)
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 30, "measured window per workload, in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the layer ladder")
		repeat   = fs.Int("repeat", 1, "runs per workload; with more than one, print each metric's median, quartiles and largest deviation")
		out      = fs.String("out", "", "write the full report as JSON to this file")
		spans    = fs.String("spans", filepath.Join(".bench_build", "spans.json"), "traced run: write the spans as JSON to this file")
		smoke    = fs.Bool("smoke", false, "quick harness check: 0.5 s windows, short warm-up, one set-up")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != allWorkloads {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *trace != 0 && *trace != 1 || *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1, -repeat at least 1 and -seconds positive")
		return 2
	}
	// A run sets up three times (setup_s is the median) and discards a 3 s
	// warm-up before its measured window.
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  3 * time.Second,
		setups:  3,
		trace:   *trace == 1,
		rung:    200 * time.Millisecond,
		echo:    time.Second,
	}
	if *smoke {
		cfg.seconds, cfg.warmup, cfg.setups = 500*time.Millisecond, 200*time.Millisecond, 1
		cfg.rung, cfg.echo = 20*time.Millisecond, 200*time.Millisecond
	}
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH}
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s seed=%d seconds=%g trace=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, cfg.seed, cfg.seconds.Seconds(), cfg.trace)

	rep := report{Host: h, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace}
	failed := false
	for r := 0; r < *repeat; r++ {
		var results []*result
		for _, name := range names {
			res, err := runWorkload(cfg, name)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printResult(stdout, res)
			if res.Mismatches > 0 {
				fmt.Fprintf(stderr, "bench: %s: %d answers differ from offline Est-IO\n", name, res.Mismatches)
				failed = true
			}
			if res.Failed > 0 {
				fmt.Fprintf(stderr, "bench: %s: %d failed requests, first: %s\n", name, res.Failed, res.FirstError)
			}
			if r < *repeat-1 {
				res.spans = nil // only the last run's spans are written
			}
			results = append(results, res)
		}
		rep.Runs = append(rep.Runs, results)
	}
	if *repeat > 1 {
		printRepeat(stdout, rep.Runs)
	}
	if cfg.trace {
		if err := writeSpans(*spans, rep.Runs[len(rep.Runs)-1]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", *spans)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	sum := summarize(rep.Runs, cfg.trace)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(sum.missing) > 0 && !*smoke {
		fmt.Fprintf(stderr, "bench: too few samples for %s; lengthen -seconds\n", strings.Join(sum.missing, ", "))
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s request_hash %s\n", res.Workload, res.Hash)
	for _, m := range res.Metrics {
		fmt.Fprintln(w, line(res.Workload, m))
	}
	fmt.Fprintf(w, "%s oracle attempted=%d failed=%d mismatches=%d\n", res.Workload, res.Attempted, res.Failed, res.Mismatches)
	for i, c := range res.Top {
		fmt.Fprintf(w, "%s top%d %s %s us/request\n", res.Workload, i+1, c.Layer, formatValue(c.US))
	}
	if a := res.Attribution; a != nil {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s attribution client_p50=%s echo=%s inproc=%s forward_share=%s residual=%+.1f%% %s\n",
			res.Workload, formatValue(a.ClientP50), formatValue(a.Echo), formatValue(a.Inproc),
			formatValue(a.Forward), a.Residual*100, verdict)
	}
}

// printRepeat prints, per workload and metric, the median, quartiles and
// largest deviation from the median across repeated runs.
func printRepeat(w io.Writer, runs [][]*result) {
	for wi, first := range runs[0] {
		for _, m := range first.Metrics {
			var vals []float64
			for _, results := range runs {
				if v, ok := results[wi].value(m.Name); ok {
					vals = append(vals, v)
				}
			}
			q1, med, q3 := quartiles(vals)
			dev := 0.0
			for _, v := range vals {
				dev = math.Max(dev, math.Abs(v-med))
			}
			fmt.Fprintf(w, "%s %s median=%s q1=%s q3=%s spread=%.1f%% maxdev=%.1f%% %s runs=%d\n",
				first.Workload, m.Name, formatValue(med), formatValue(q1), formatValue(q3),
				100*ratio(q3-q1, math.Abs(med)), 100*ratio(dev, math.Abs(med)), m.Unit, len(vals))
		}
	}
}

// summarize builds the last line: the declared end-to-end (or, traced,
// per-layer) metrics of the last run. With several workloads the names
// are prefixed "<workload>/".
func summarize(runs [][]*result, traced bool) summary {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	last := runs[len(runs)-1]
	s := summary{Correct: true, Metrics: map[string]jsonVal{}}
	for _, results := range runs {
		for _, r := range results {
			s.Attempted += r.Attempted
			s.Failed += r.Failed
			s.Correct = s.Correct && r.Mismatches == 0
		}
	}
	for _, r := range last {
		for _, d := range defs {
			key := d.name
			if len(last) > 1 {
				key = r.Workload + "/" + d.name
			}
			v, ok := r.value(d.name)
			if !ok {
				if !traced {
					s.missing = append(s.missing, key)
					continue
				}
				v = 0 // a layer this workload does not exercise
			}
			s.Metrics[key] = jsonVal{Value: v, Unit: d.unit}
		}
	}
	return s
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpans(path string, results []*result) error {
	type workloadSpans struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var doc []workloadSpans
	for _, r := range results {
		doc = append(doc, workloadSpans{r.Workload, r.spans})
	}
	if err := writeJSON(path, doc); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
