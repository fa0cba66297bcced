package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/lrusim"
	"epfis/internal/obs"
	"epfis/internal/service"
	"epfis/internal/stats"
)

// timeLoop calls f until d has passed, reading the clock every chunk calls,
// and returns the mean nanoseconds per call.
func timeLoop(d time.Duration, chunk int, f func(i int) error) (float64, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < d {
		for k := 0; k < chunk; k++ {
			if err := f(n); err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// discardWriter is a reusable http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// inprocRequests are a workload's own read requests, prepared for calling
// ServeHTTP without a socket.
type inprocRequests struct {
	singles []*http.Request
	batches [][]byte
}

// ladderRequests collects the workload's single-estimate requests in
// sequence order (at most 4,096) and its 64-plan batch bodies; a workload
// without one kind gets it built from its estimate shapes.
func ladderRequests(in *inputs) (*inprocRequests, error) {
	const limit = 4096
	r := &inprocRequests{}
	single := func(path string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set(obs.TraceparentHeader, "00-be7c0000000000000000000000000000-0000000000000001-00")
		r.singles = append(r.singles, req)
	}
	for _, seq := range in.clients {
		for _, o := range seq {
			switch {
			case o.kind == opEstimate && len(r.singles) < limit:
				single(o.path)
			case o.kind == opBatch && len(r.batches) < limit/batchPlans:
				r.batches = append(r.batches, o.body)
			}
		}
	}
	for i := 0; len(r.singles) < limit && i < len(in.shapes); i++ {
		single(estimatePath(in.shapes[i]))
	}
	for i := 0; len(r.batches) < limit/batchPlans && i+batchPlans <= len(in.shapes); i += batchPlans {
		var req service.BatchRequest
		for _, s := range in.shapes[i : i+batchPlans] {
			req.Requests = append(req.Requests, service.EstimateRequest{
				Table: tableName, Column: column(s.index), B: s.b, Sigma: s.sigma})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.batches = append(r.batches, body)
	}
	return r, nil
}

// inprocServer is a single-node service over an in-memory copy of version
// 0, configured like the served nodes except for the memo cache size.
func inprocServer(in *inputs, cacheEntries int) (*service.Server, error) {
	store := catalog.NewStore()
	c, err := catalogOf(in.entries[0])
	if err != nil {
		return nil, err
	}
	if _, err := store.ReplaceAll(c); err != nil {
		return nil, err
	}
	return service.New(service.Config{Store: store, CacheEntries: cacheEntries})
}

// serveLoop times ServeHTTP over reqs, cycled, after one warming pass.
func serveLoop(srv *service.Server, d time.Duration, reqs func(i int) *http.Request, n int) (float64, error) {
	w := &discardWriter{h: http.Header{}}
	call := func(i int) error {
		clear(w.h)
		w.status = 0
		srv.ServeHTTP(w, reqs(i))
		if w.status != http.StatusOK {
			return fmt.Errorf("in-process request %d: status %d", i, w.status)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := call(i); err != nil {
			return 0, err
		}
	}
	return timeLoop(d, 16, call)
}

// runLadder times each layer's public entry points alone, in process, on
// the workload's own data. d is the time spent on each rung.
func runLadder(in *inputs, seed int64, d time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	reqs, err := ladderRequests(in)
	if err != nil {
		return nil, err
	}

	// service: ServeHTTP without a socket on the same request sequence,
	// with the memo cache at its default size and disabled. The default is
	// also the served configuration, so inproc_single_ns is inproc_hit_ns.
	single := func(i int) *http.Request { return reqs.singles[i%len(reqs.singles)] }
	for _, rung := range []struct {
		name  string
		cache int
	}{{"service.inproc_hit_ns", 0}, {"service.inproc_miss_ns", -1}} {
		srv, err := inprocServer(in, rung.cache)
		if err != nil {
			return nil, err
		}
		out[rung.name], err = serveLoop(srv, d, single, len(reqs.singles))
		srv.Close()
		if err != nil {
			return nil, err
		}
	}
	out["service.inproc_single_ns"] = out["service.inproc_hit_ns"]
	srv, err := inprocServer(in, 0)
	if err != nil {
		return nil, err
	}
	body := &rewindBody{}
	batch := func(i int) *http.Request {
		body.Reset(reqs.batches[i%len(reqs.batches)])
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", body)
		req.Header.Set("Content-Type", "application/json")
		return req
	}
	out["service.inproc_batch64_ns"], err = serveLoop(srv, d, batch, len(reqs.batches))
	srv.Close()
	if err != nil {
		return nil, err
	}

	// core and catalog: Est-IO interpreted and compiled, and the snapshot
	// lookup, over the workload's shapes.
	shapes := in.shapes
	entries := in.entries[0]
	if out["core.estio_ns"], err = timeLoop(d, 256, func(i int) error {
		s := shapes[i%len(shapes)]
		_, err := core.EstIO(entries[s.index], core.Input{B: s.b, Sigma: s.sigma, S: 1}, core.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	compiled := make([]*core.CompiledEstimator, len(entries))
	for i, e := range entries {
		if compiled[i], err = core.Compile(e, core.Options{}); err != nil {
			return nil, err
		}
	}
	var est core.Estimate
	if out["core.compiled_ns"], err = timeLoop(d, 256, func(i int) error {
		s := shapes[i%len(shapes)]
		return compiled[s.index].EstimateInto(&est, core.Input{B: s.b, Sigma: s.sigma, S: 1})
	}); err != nil {
		return nil, err
	}
	store := catalog.NewStore()
	c, err := catalogOf(entries)
	if err != nil {
		return nil, err
	}
	if _, err := store.ReplaceAll(c); err != nil {
		return nil, err
	}
	keys := make([]string, len(shapes))
	for i, s := range shapes {
		keys[i] = tableName + "." + column(s.index)
	}
	if out["catalog.lookup_ns"], err = timeLoop(d, 256, func(i int) error {
		if _, ok := store.Snapshot().CompiledByKey(keys[i%len(keys)]); !ok {
			return fmt.Errorf("no compiled estimator for %s", keys[i%len(keys)])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// LRU-Fit, its curve-only half, and the incremental simulator, on the
	// catalog's first index.
	ds, err := datagen.GenerateDataset(datagen.Config{Name: tableName, Column: column(0),
		N: indexRecords, I: indexKeys, R: recordsPerPage, K: clusteringWindows[0],
		Seed: derive(seed, streamCatalog, 0)})
	if err != nil {
		return nil, err
	}
	trace := ds.Trace()
	meta := core.Meta{Table: tableName, Column: column(0), T: ds.T, N: indexRecords, I: indexKeys}
	fit := func(int) error { _, err := core.LRUFit(trace, meta, core.Options{}); return err }
	if out["core.lrufit_ms"], err = timeLoop(d, 1, fit); err != nil {
		return nil, err
	}
	out["core.lrufit_ms"] /= 1e6
	curve := lrusim.Analyze(trace)
	if out["core.lrufit_from_curve_us"], err = timeLoop(d, 4, func(int) error {
		_, err := core.LRUFitFromCurve(curve, meta, core.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	out["core.lrufit_from_curve_us"] /= 1e3
	acc := lrusim.NewAccum()
	batches := len(trace) / ingestBatchRefs
	if out["lrusim.feed_ns_per_ref"], err = timeLoop(d, 4, func(i int) error {
		b := i % batches
		if b == 0 {
			acc.Reset()
		}
		acc.Feed(trace[b*ingestBatchRefs : (b+1)*ingestBatchRefs])
		return nil
	}); err != nil {
		return nil, err
	}
	out["lrusim.feed_ns_per_ref"] /= ingestBatchRefs

	// One durable catalog mutation: Store.Put on a WAL store, alternating
	// two entries so every Put changes the catalog.
	if out["catalog.put_wal_us"], err = putWAL(entries, d); err != nil {
		return nil, err
	}
	out["catalog.put_wal_us"] /= 1e3
	return out, nil
}

func putWAL(entries []*stats.IndexStats, d time.Duration) (float64, error) {
	dir, err := os.MkdirTemp("", "ladder-wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := catalog.OpenWAL(filepath.Join(dir, "catalog.json"), catalog.WALOptions{})
	if err != nil {
		return 0, err
	}
	c, err := catalogOf(entries)
	if err == nil {
		_, err = store.ReplaceAll(c)
	}
	if err != nil {
		return 0, errors.Join(err, store.Close())
	}
	alt := *entries[1]
	alt.Column = entries[0].Column
	versions := [2]*stats.IndexStats{&alt, entries[0]}
	ns, err := timeLoop(d, 1, func(i int) error {
		_, err := store.Put(versions[i%2])
		return err
	})
	return ns, errors.Join(err, store.Close())
}

// rewindBody is a reusable request body.
type rewindBody struct{ bytes.Reader }

func (b *rewindBody) Close() error { return nil }

// echoLatency is the floor no service change can beat: the p50 round trip
// of the workload's read requests, from as many clients as send reads and
// with the same client settings, to a benchmark-owned net/http handler that
// reads the request and answers with respBytes bytes.
func echoLatency(in *inputs, respBytes int, warm, d time.Duration) (float64, int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	payload := bytes.Repeat([]byte("0"), respBytes)
	hs := &http.Server{ReadHeaderTimeout: 5 * time.Second, Handler: http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			w.Write(payload)
		})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var dials atomic.Int64
	var phase atomic.Int32
	bases := []string{"http://" + ln.Addr().String()}
	var cs []*client
	var wg sync.WaitGroup
	for _, seq := range in.clients {
		var reads []*op
		for _, o := range seq {
			if o.kind == opEstimate || o.kind == opBatch {
				reads = append(reads, &op{kind: o.kind, path: o.path, body: o.body})
			}
		}
		if len(reads) == 0 {
			continue
		}
		c := newClient(len(cs), 0, reads, in, bases, nil, &dials, nil)
		c.echo = true
		cs = append(cs, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(&phase)
		}()
	}
	time.Sleep(warm)
	phase.Store(phaseMeasure)
	time.Sleep(d)
	phase.Store(phaseStop)
	wg.Wait()
	var lat []float64
	var failed int64
	for _, c := range cs {
		c.tr.CloseIdleConnections()
		t := &c.tallies[phaseMeasure]
		failed += t.failed
		for _, k := range []opKind{opEstimate, opBatch} {
			for _, ns := range t.lat[k] {
				lat = append(lat, float64(ns)/1e3)
			}
		}
	}
	err = hs.Close()
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if failed > 0 {
		err = errors.Join(err, fmt.Errorf("echo: %d failed requests", failed))
	}
	v, _ := percentile(lat, 0.5)
	return v, len(lat), err
}
