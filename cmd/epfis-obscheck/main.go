// Command epfis-obscheck smoke-tests the estimation service's observability
// surface end to end over real HTTP: the Prometheus exposition GET /metrics
// answers (run through the obs package's strict parser), the /debug/traces
// ring with its per-stage span breakdown, traceparent echo, and the
// build-info fields on /healthz.
//
// With no flags it spawns a live instance of the service (the same server
// epfis-serve runs) on a loopback port, installs a freshly fitted index
// through PUT /v1/indexes, drives traffic, and checks every surface:
//
//	epfis-obscheck
//
// With -addr it runs the same checks against an already-running epfis-serve
// — note the checks install and then delete an index named
// "epfis_obscheck"."key" on that instance:
//
//	epfis-obscheck -addr localhost:8080
//
// Exit status is non-zero when any check fails; `make obs-check` runs the
// self-spawning form in CI, beside the in-process cluster tests that check
// trace stitching, federation and accuracy telemetry across nodes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/obs"
	"epfis/internal/service"
	"epfis/internal/stats"
)

// checkTable/checkColumn name the index the checks install and remove.
const (
	checkTable  = "epfis_obscheck"
	checkColumn = "key"
)

// requiredFamilies must all appear in the Prometheus exposition after the
// check traffic has run.
var requiredFamilies = []string{
	"epfis_http_requests_total",
	"epfis_http_request_duration_seconds_bucket",
	"epfis_estimate_buffer_pages_bucket",
	"epfis_estimate_sigma_bucket",
	"epfis_index_estimates_total",
	"epfis_estimates_total",
	"epfis_cache_hits_total",
	"epfis_cache_misses_total",
	"epfis_catalog_generation",
	"epfis_breaker_state",
	"epfis_degraded",
	"epfis_draining",
	"epfis_traces_total",
	"epfis_uptime_seconds",
	"epfis_build_info",
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "epfis-obscheck: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("epfis-obscheck", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "check a running service at this address instead of spawning one")
		timeout = fs.Duration("timeout", 30*time.Second, "overall deadline for the checks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	base := *addr
	if base == "" {
		srv, err := service.New(service.Config{
			Store:     catalog.NewStore(),
			SlowTrace: -1, // flag every request slow so the slow path is exercised
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx, ln) }()
		defer func() {
			cancel()
			<-done
		}()
		base = ln.Addr().String()
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return runChecks(ctx, base, os.Stdout)
}

// runChecks drives the observability checks against the service at base,
// logging one line per passed check to out.
func runChecks(ctx context.Context, base string, out io.Writer) error {
	client := &http.Client{}

	// The service must come up healthy, with build info stamped.
	var h service.Health
	if err := pollHealthz(ctx, client, base, &h); err != nil {
		return err
	}
	if h.GoVersion == "" {
		return fmt.Errorf("healthz: missing goVersion build info: %+v", h)
	}
	fmt.Fprintf(out, "ok healthz: status=%s generation=%d goVersion=%s\n", h.Status, h.Generation, h.GoVersion)

	// Install a freshly fitted index, then remove it when done.
	st, err := fitCheckStats()
	if err != nil {
		return err
	}
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	putURL := fmt.Sprintf("%s/v1/indexes/%s/%s", base, checkTable, checkColumn)
	if _, _, err := do(ctx, client, http.MethodPut, putURL, body, nil); err != nil {
		return fmt.Errorf("install check index: %w", err)
	}
	defer do(context.Background(), client, http.MethodDelete, putURL, nil, nil)
	fmt.Fprintf(out, "ok install: %s.%s\n", checkTable, checkColumn)

	// Estimate traffic with an explicit traceparent: the response must echo
	// the trace id with a fresh span id. A second identical request warms the
	// memo cache so hit counters move too.
	tp := obs.NewTraceparent()
	estURL := fmt.Sprintf("%s/v1/estimate?table=%s&column=%s&b=128&sigma=0.1", base, checkTable, checkColumn)
	hdr := http.Header{obs.TraceparentHeader: []string{tp.String()}}
	for i := 0; i < 2; i++ {
		resp, _, err := do(ctx, client, http.MethodGet, estURL, nil, hdr)
		if err != nil {
			return fmt.Errorf("estimate: %w", err)
		}
		echo, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
		if !ok {
			return fmt.Errorf("estimate: response traceparent %q unparseable", resp.Header.Get(obs.TraceparentHeader))
		}
		if echo.Trace != tp.Trace {
			return fmt.Errorf("estimate: trace id not propagated: sent %s got %s", tp.TraceString(), echo.TraceString())
		}
		if echo.Span == tp.Span {
			return fmt.Errorf("estimate: span id not re-parented")
		}
	}
	fmt.Fprintf(out, "ok estimate: traceparent %s echoed and re-parented\n", tp.TraceString())

	// GET /metrics must answer a valid exposition with the expected
	// families.
	resp, raw, err := do(ctx, client, http.MethodGet, base+"/metrics", nil, nil)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		return fmt.Errorf("metrics: Content-Type = %q", ct)
	}
	if _, err := obs.ParseExposition(raw); err != nil {
		return fmt.Errorf("metrics: invalid exposition: %w", err)
	}
	for _, fam := range requiredFamilies {
		if !bytes.Contains(raw, []byte(fam)) {
			return fmt.Errorf("metrics: missing family %s", fam)
		}
	}
	idx := fmt.Sprintf(`epfis_index_estimates_total{index="%s.%s"}`, checkTable, checkColumn)
	if !bytes.Contains(raw, []byte(idx)) {
		return fmt.Errorf("metrics: missing per-index series %s", idx)
	}
	fmt.Fprintf(out, "ok metrics: exposition valid (%d bytes, %d families)\n", len(raw), len(requiredFamilies))

	// The trace ring must hold the estimate request with its span breakdown.
	_, raw, err = do(ctx, client, http.MethodGet, base+"/debug/traces", nil, nil)
	if err != nil {
		return fmt.Errorf("debug/traces: %w (is tracing disabled on this instance?)", err)
	}
	var traces struct {
		Ring   int `json:"ring"`
		Traces []struct {
			Trace string `json:"trace"`
			Route string `json:"route"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(raw, &traces); err != nil {
		return fmt.Errorf("debug/traces: %w", err)
	}
	// Both estimate requests share the trace id; the memo-cold one carries
	// the full parse/cache/estimate/encode breakdown, the warm one skips the
	// estimate stage.
	want := strings.Join([]string{obs.StageParse, obs.StageCache, obs.StageEstimate, obs.StageEncode}, ",")
	found, matched := 0, false
	for _, tr := range traces.Traces {
		if tr.Trace != tp.TraceString() {
			continue
		}
		found++
		var names []string
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
		}
		if strings.Join(names, ",") == want {
			matched = true
		}
	}
	if found == 0 {
		return fmt.Errorf("debug/traces: trace %s not in ring (%d traces)", tp.TraceString(), len(traces.Traces))
	}
	if !matched {
		return fmt.Errorf("debug/traces: no trace %s with span breakdown %s", tp.TraceString(), want)
	}
	fmt.Fprintf(out, "ok traces: ring=%d, trace %s has parse/cache/estimate/encode spans\n", traces.Ring, tp.TraceString())
	return nil
}

// pollHealthz waits for the service to answer /healthz with 200.
func pollHealthz(ctx context.Context, client *http.Client, base string, h *service.Health) error {
	for {
		_, raw, err := do(ctx, client, http.MethodGet, base+"/healthz", nil, nil)
		if err == nil {
			return json.Unmarshal(raw, h)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("healthz: %w (last error: %v)", ctx.Err(), err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// do runs one request and returns the response plus its full body, treating
// any non-2xx status as an error.
func do(ctx context.Context, client *http.Client, method, url string, body []byte, hdr http.Header) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("%s %s: %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp, raw, nil
}

// fitCheckStats runs the real LRU-Fit pipeline over a small synthetic index
// so the installed statistics are paper-shaped, not hand-rolled.
func fitCheckStats() (*stats.IndexStats, error) {
	cfg := datagen.Config{Name: checkTable, Column: checkColumn, N: 20_000, I: 500, R: 40, K: 0.2, Seed: 11}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		return nil, err
	}
	meta := core.Meta{Table: checkTable, Column: checkColumn, T: ds.T, N: cfg.N, I: cfg.I}
	return core.LRUFit(ds.Trace(), meta, core.Options{})
}
