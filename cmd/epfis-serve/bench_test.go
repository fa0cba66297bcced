// Benchmarks for the estimation service, in two families:
//
// BenchmarkServiceEstimate is the serving path — the handler stack invoked
// directly (mux, admission control, metrics, parse, estimate, encode) with a
// reusable response writer and no sockets. This is the path the
// zero-allocation work targets, and the one the CI alloc gate pins: run with
//
//	go test -bench=ServiceEstimate -benchmem ./cmd/epfis-serve
//
// and read allocs/op directly. The server uses the default Config, as
// served: the estimate routes run inline under their own deadlines, so the
// request timeout stays on without a per-request watchdog goroutine.
//
// BenchmarkServiceHTTP is the old end-to-end family (real sockets, real
// client), kept for continuity: it measures what a remote optimizer
// experiences, where kernel round trips and net/http client internals
// dominate.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/service"
)

// benchShapes is a rotation of plan shapes, so the memo cache sees realistic
// re-costing rather than one key.
func benchShapes() []struct {
	B     int64
	Sigma float64
} {
	shapes := make([]struct {
		B     int64
		Sigma float64
	}, 32)
	for i := range shapes {
		shapes[i].B = int64(12 + 77*i)
		shapes[i].Sigma = float64(1+i) / float64(len(shapes)+1)
	}
	return shapes
}

// benchStore builds a catalog with one fitted synthetic index.
func benchStore(b *testing.B) *catalog.Store {
	b.Helper()
	cfg := datagen.Config{Name: "orders", Column: "key", N: 100_000, I: 1_000, R: 40, K: 0.2, Seed: 1}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.LRUFit(ds.Trace(), core.Meta{Table: "orders", Column: "key", T: ds.T, N: cfg.N, I: cfg.I}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	store := catalog.NewStore()
	if _, err := store.Put(st); err != nil {
		b.Fatal(err)
	}
	return store
}

// benchHandler builds the serving-path server: full handler stack, default
// request timeout, optional memo cache.
func benchHandler(b *testing.B, cacheEntries int) *service.Server {
	b.Helper()
	srv, err := service.New(service.Config{Store: benchStore(b), CacheEntries: cacheEntries})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// discardWriter is a reusable http.ResponseWriter for handler-level
// benchmarks. Like net/http's connection writer it accepts read deadlines,
// which the batch route sets on its body.
type discardWriter struct {
	h      http.Header
	status int
}

func newDiscardWriter() *discardWriter { return &discardWriter{h: make(http.Header, 4)} }

func (w *discardWriter) Header() http.Header             { return w.h }
func (w *discardWriter) WriteHeader(code int)            { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error)     { return len(p), nil }
func (w *discardWriter) SetReadDeadline(time.Time) error { return nil }

func (w *discardWriter) reset() {
	w.status = 0
	for k := range w.h {
		delete(w.h, k)
	}
}

// singleRequests pre-builds one GET request per plan shape.
func singleRequests(srvShapes []struct {
	B     int64
	Sigma float64
}) []*http.Request {
	reqs := make([]*http.Request, len(srvShapes))
	for i, sh := range srvShapes {
		reqs[i] = httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/estimate?table=orders&column=key&b=%d&sigma=%g", sh.B, sh.Sigma), nil)
	}
	return reqs
}

// rewindReader is a rewindable no-op-close request body.
type rewindReader struct{ r *bytes.Reader }

func (b *rewindReader) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *rewindReader) Close() error               { return nil }

const benchFanout = 64 // candidate plans costed per "query"

func batchPayloads(b *testing.B, shapes []struct {
	B     int64
	Sigma float64
}) [][]byte {
	b.Helper()
	payloads := make([][]byte, 4)
	for p := range payloads {
		var breq service.BatchRequest
		for i := 0; i < benchFanout; i++ {
			sh := shapes[(p*benchFanout+i)%len(shapes)]
			breq.Requests = append(breq.Requests, service.EstimateRequest{
				Table: "orders", Column: "key", B: sh.B, Sigma: sh.Sigma,
			})
		}
		raw, err := json.Marshal(breq)
		if err != nil {
			b.Fatal(err)
		}
		payloads[p] = raw
	}
	return payloads
}

// serveSingle drives one pre-built request through the handler stack.
func serveSingle(b *testing.B, srv *service.Server, w *discardWriter, req *http.Request) {
	w.reset()
	srv.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

func BenchmarkServiceEstimate(b *testing.B) {
	shapes := benchShapes()

	b.Run("single", func(b *testing.B) {
		srv := benchHandler(b, 0)
		reqs := singleRequests(shapes)
		w := newDiscardWriter()
		serveSingle(b, srv, w, reqs[0]) // warm pools and memo slot 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveSingle(b, srv, w, reqs[i%len(reqs)])
		}
	})

	b.Run("cache_hit", func(b *testing.B) {
		srv := benchHandler(b, 0)
		reqs := singleRequests(shapes[:1])
		w := newDiscardWriter()
		serveSingle(b, srv, w, reqs[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveSingle(b, srv, w, reqs[0])
		}
	})

	b.Run("cache_miss", func(b *testing.B) {
		// Memoization disabled: every request runs the compiled estimator.
		srv := benchHandler(b, -1)
		reqs := singleRequests(shapes)
		w := newDiscardWriter()
		serveSingle(b, srv, w, reqs[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveSingle(b, srv, w, reqs[i%len(reqs)])
		}
	})

	b.Run("batch64", func(b *testing.B) {
		srv := benchHandler(b, 0)
		payloads := batchPayloads(b, shapes)
		bodies := make([]*rewindReader, len(payloads))
		reqs := make([]*http.Request, len(payloads))
		for i, raw := range payloads {
			bodies[i] = &rewindReader{r: bytes.NewReader(raw)}
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bodies[i])
		}
		w := newDiscardWriter()
		serve := func(i int) {
			w.reset()
			bodies[i].r.Seek(0, io.SeekStart)
			reqs[i].Body = bodies[i]
			srv.ServeHTTP(w, reqs[i])
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
		serve(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(i % len(reqs))
		}
		// One iteration costs 64 estimates; report the amortized unit cost.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchFanout), "ns/estimate")
	})

	b.Run("parallel", func(b *testing.B) {
		srv := benchHandler(b, 0)
		reqs := singleRequests(shapes)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := newDiscardWriter()
			i := 0
			for pb.Next() {
				// Each goroutine needs its own request: handlers may mutate
				// per-request state on the shared *http.Request.
				req := reqs[i%len(reqs)].Clone(reqs[0].Context())
				i++
				serveSingle(b, srv, w, req)
			}
		})
	})
}

// --- end-to-end family (sockets + net/http client), the pre-existing view --

// benchServer builds a service over one fitted synthetic index behind a real
// listener.
func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	srv, err := service.New(service.Config{Store: benchStore(b)})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	return ts
}

// benchClient allows enough idle connections that parallel benchmark
// goroutines reuse keep-alive connections instead of redialing.
func benchClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}}
}

func drain(resp *http.Response) error {
	_, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

func BenchmarkServiceHTTP(b *testing.B) {
	shapes := benchShapes()

	b.Run("single", func(b *testing.B) {
		ts := benchServer(b)
		client := benchClient()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				sh := shapes[i%len(shapes)]
				i++
				url := fmt.Sprintf("%s/v1/estimate?table=orders&column=key&b=%d&sigma=%g", ts.URL, sh.B, sh.Sigma)
				resp, err := client.Get(url)
				if err != nil {
					b.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					drain(resp)
					return
				}
				if err := drain(resp); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/estimate")
	})

	b.Run("batch64", func(b *testing.B) {
		ts := benchServer(b)
		client := benchClient()
		payloads := batchPayloads(b, shapes)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				raw := payloads[i%len(payloads)]
				i++
				resp, err := client.Post(ts.URL+"/v1/estimate/batch", "application/json", bytes.NewReader(raw))
				if err != nil {
					b.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					drain(resp)
					return
				}
				if err := drain(resp); err != nil {
					b.Error(err)
					return
				}
			}
		})
		// One iteration costs 64 estimates; report the amortized unit cost.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchFanout), "ns/estimate")
	})
}
