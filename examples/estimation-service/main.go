// Estimation service: run the statistics catalog + Est-IO as an HTTP
// service and cost candidate plans over the network, the way a fleet of
// query optimizers would.
//
//  1. Start the service in-process on an ephemeral port (in production run
//     cmd/epfis-serve).
//  2. Generate a synthetic index, run Subprogram LRU-Fit, and install the
//     resulting statistics over HTTP (PUT /v1/indexes/{table}/{column}).
//  3. Cost a whole batch of candidate plans — one buffer budget per plan —
//     in a single POST /v1/estimate/batch round trip.
//  4. Re-cost one plan twice to show the memo cache, then read the memo's
//     counters off the Prometheus exposition GET /metrics answers.
//
// Run with: go run ./examples/estimation-service
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"

	"epfis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("estimation-service: ")

	// 1. An in-memory catalog store behind the HTTP service.
	store := epfis.NewCatalogStore()
	srv, err := epfis.NewService(epfis.ServiceConfig{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := srv.Serve(ctx, ln); err != nil {
			log.Fatal(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("service listening on %s\n", base)

	// 2. Statistics collection (ANALYZE time): a 100k-record index with a
	// moderately clustered placement, fitted by LRU-Fit.
	ds, err := epfis.GenerateDataset(epfis.SyntheticConfig{
		Name: "orders", N: 100_000, I: 1_000, R: 40, K: 0.2, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, err := epfis.CollectStats(ds.Trace(), epfis.Meta{
		Table: "orders", Column: "key", T: ds.T, N: 100_000, I: 1_000,
	}, epfis.Options{})
	if err != nil {
		log.Fatal(err)
	}
	body, err := json.Marshal(st)
	if err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/indexes/orders/key", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var installed struct {
		Key        string `json:"key"`
		Generation uint64 `json:"generation"`
	}
	mustDecode(resp, &installed)
	fmt.Printf("installed statistics for %s (catalog generation %d)\n", installed.Key, installed.Generation)

	// 3. Cost candidate plans: the same scan (sigma = 0.1) under a sweep of
	// buffer budgets, all in one batch round trip.
	type planInput struct {
		Table  string  `json:"table"`
		Column string  `json:"column"`
		B      int64   `json:"b"`
		Sigma  float64 `json:"sigma"`
	}
	var batch struct {
		Requests []planInput `json:"requests"`
	}
	budgets := []int64{12, 25, 50, 100, 250, 500, 1000, 2500}
	for _, b := range budgets {
		batch.Requests = append(batch.Requests, planInput{"orders", "key", b, 0.1})
	}
	raw, err := json.Marshal(batch)
	if err != nil {
		log.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/estimate/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	var costed struct {
		Items []struct {
			Estimate *struct {
				B       int64   `json:"b"`
				Fetches float64 `json:"fetches"`
			} `json:"estimate"`
			Error string `json:"error"`
		} `json:"items"`
	}
	mustDecode(resp, &costed)
	fmt.Println("\ncandidate plans (sigma = 0.10):")
	fmt.Println("  buffer pages B | estimated data-page fetches")
	for _, item := range costed.Items {
		if item.Estimate == nil {
			log.Fatalf("batch item failed: %s", item.Error)
		}
		fmt.Printf("  %14d | %10.1f\n", item.Estimate.B, item.Estimate.Fetches)
	}

	// 4. Identical plan shapes hit the memo cache.
	single := base + "/v1/estimate?table=orders&column=key&b=500&sigma=0.25"
	for i := 0; i < 2; i++ {
		resp, err = http.Get(single)
		if err != nil {
			log.Fatal(err)
		}
		var est struct {
			Fetches float64 `json:"fetches"`
			Cached  bool    `json:"cached"`
		}
		mustDecode(resp, &est)
		fmt.Printf("\nestimate(B=500, sigma=0.25) = %.1f fetches (cached: %v)", est.Fetches, est.Cached)
	}

	// GET /metrics answers the Prometheus text exposition: one
	// "name value" line per unlabelled counter.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	counters := map[string]float64{"epfis_estimates_total": 0, "epfis_cache_hits_total": 0, "epfis_cache_misses_total": 0}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, _ := strings.Cut(sc.Text(), " ")
		if _, ok := counters[name]; ok {
			if counters[name], err = strconv.ParseFloat(value, 64); err != nil {
				log.Fatalf("GET /metrics: %s: %v", name, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	hits, misses := counters["epfis_cache_hits_total"], counters["epfis_cache_misses_total"]
	fmt.Printf("\n\nmetrics: %.0f estimates served, cache %.0f hits / %.0f misses (ratio %.2f)\n",
		counters["epfis_estimates_total"], hits, misses, hits/(hits+misses))
}

// mustDecode checks the HTTP status and decodes the JSON body.
func mustDecode(resp *http.Response, v any) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("%s %s: HTTP %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
