package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/faultfs"
	"epfis/internal/obs"
)

// Span names recorded at the boundaries the benchmark can reach from
// outside the program.
const (
	spanClient    = "client"            // the generator's request, send to last body byte
	spanHandler   = "service.handler"   // service.Server.ServeHTTP on a node
	spanForward   = "cluster.forward"   // an ownership proxy hop, as the sender sees it
	spanReplicate = "cluster.replicate" // a replication hop, as the sender sees it
	spanWALSync   = "catalog.wal_sync"  // an fsync under a catalog WAL
)

// span is one recorded interval, in nanoseconds since the tracer started.
// Client, handler and hop spans carry the trace ID the client sent. A WAL
// sync serves a group commit of many requests, so it stays unlinked.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Route  string `json:"route,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	sent string // span ID this span put on the wire (client, hop)
	recv string // span ID this span was called with (handler)
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects spans while on. Its wrappers are installed only in traced
// runs, and pass straight through while the tracer is off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	fsyncs   atomic.Int64 // file and directory syncs under the WAL stores
	walBytes atomic.Int64 // bytes appended to WAL files
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	s.ID = t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sampledTrace reports whether a traceparent came from the generator with
// the sampled flag set, and returns its trace and span IDs.
func sampledTrace(tp string) (trace, spanID string, ok bool) {
	if len(tp) != 55 || tp[3:7] != "be7c" || tp[53:] != "01" {
		return "", "", false
	}
	return tp[3:35], tp[36:52], true
}

func (t *tracer) clientSpan(tp, route string, start, end time.Time) {
	if trace, id, ok := sampledTrace(tp); ok {
		t.add(span{Name: spanClient, Route: route, Trace: trace, Start: t.since(start), End: t.since(end), sent: id})
	}
}

// handler wraps one node's service.Server.
func (t *tracer) handler(node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		trace, from, ok := sampledTrace(r.Header.Get(obs.TraceparentHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{Name: spanHandler, Node: node, Route: r.Method + " " + r.URL.Path, Trace: trace,
			Start: t.since(start), End: t.since(time.Now()), recv: from})
	})
}

// hopTransport wraps one node's service.Config.Transport, which carries its
// forwarding and replication hops. A hop ends when the sender closes the
// response body.
type hopTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !h.t.on.Load() {
		return h.base.RoundTrip(r)
	}
	trace, sent, ok := sampledTrace(r.Header.Get(obs.TraceparentHeader))
	if !ok {
		return h.base.RoundTrip(r)
	}
	s := span{Name: spanReplicate, Node: h.node, Route: r.Method + " " + r.URL.Path, Trace: trace, sent: sent}
	if r.Header.Get(cluster.HeaderForwarded) != "" {
		s.Name = spanForward
	}
	s.Start = h.t.since(time.Now())
	resp, err := h.base.RoundTrip(r)
	if err != nil {
		s.End = h.t.since(time.Now())
		h.t.add(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, t: h.t, s: s}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	done bool
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.End = b.t.since(time.Now())
		b.t.add(b.s)
	}
	return err
}

// walFS wraps the faultfs.FS under one node's WAL store, counting syncs and
// appended bytes and recording each file sync as a span while tracing.
type walFS struct {
	faultfs.FS
	t    *tracer
	node string
}

func (f *walFS) OpenAppend(name string) (faultfs.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &walFile{File: file, fs: f, appends: true}, nil
}

func (f *walFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &walFile{File: file, fs: f}, nil
}

func (f *walFS) SyncDir(dir string) error {
	f.t.fsyncs.Add(1)
	return f.FS.SyncDir(dir)
}

type walFile struct {
	faultfs.File
	fs      *walFS
	appends bool // the log itself, not a checkpoint or rotation temp file
}

func (w *walFile) Write(p []byte) (int, error) {
	n, err := w.File.Write(p)
	if w.appends {
		w.fs.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (w *walFile) Sync() error {
	start := time.Now()
	err := w.File.Sync()
	t := w.fs.t
	t.fsyncs.Add(1)
	if t.on.Load() {
		t.add(span{Name: spanWALSync, Node: w.fs.node, Start: t.since(start), End: t.since(time.Now())})
	}
	return err
}

// link sets every span's parent: a handler's caller is the client or hop
// span that sent its traceparent; a hop's caller is the handler on the same
// node and trace whose interval contains the hop's start.
func link(spans []span) {
	bySent := map[string]uint64{}
	handlers := map[string][]*span{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanClient, spanForward, spanReplicate:
			bySent[s.Trace+"/"+s.sent] = s.ID
		case spanHandler:
			k := s.Trace + "/" + s.Node
			handlers[k] = append(handlers[k], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanHandler:
			s.Parent = bySent[s.Trace+"/"+s.recv]
		case spanForward, spanReplicate:
			for _, h := range handlers[s.Trace+"/"+s.Node] {
				if h.Start <= s.Start && s.Start <= h.End {
					s.Parent = h.ID
				}
			}
		}
	}
}

// selfTime is a span's duration minus the part of it that its children
// cover (overlapping children count once).
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, c := range iv {
		switch {
		case i == 0:
			curLo, curHi = c[0], c[1]
		case c[0] <= curHi:
			curHi = max(curHi, c[1])
		default:
			covered += curHi - curLo
			curLo, curHi = c[0], c[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return end - start - covered
}

// spanStats is what the per-layer table takes from the linked spans.
type spanStats struct {
	clients     int       // sampled client spans
	readClient  []float64 // µs, client spans of the workload's read route
	netSelf     []float64 // µs, read client span minus its entry handler
	readHandler []float64 // µs, entry handler spans of the read route
	ingest      []float64 // µs, entry handler spans of POST /v1/ingest
	forward     []float64 // µs, forwarding hops
	replicate   []float64 // µs, replication hops
	// selfNs sums self time per layer over all sampled requests: "net" is
	// the client's own time, service.handler the entry handler of a read,
	// service.put and service.ingest the entry handlers of writes, and
	// service.peer a handler reached over a hop.
	selfNs map[string]int64
}

func analyzeSpans(spans []span, readRoute string) spanStats {
	link(spans)
	byID := make(map[uint64]*span, len(spans))
	kids := map[uint64][][2]int64{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	st := spanStats{selfNs: map[string]int64{}}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i := range spans {
		s := &spans[i]
		self := selfTime(s.Start, s.End, kids[s.ID])
		switch s.Name {
		case spanClient:
			st.clients++
			st.selfNs["net"] += self
			if s.Route == readRoute {
				st.readClient = append(st.readClient, us(s.dur()))
				if len(kids[s.ID]) > 0 {
					st.netSelf = append(st.netSelf, us(self))
				}
			}
		case spanHandler:
			p := byID[s.Parent]
			switch {
			case p == nil:
			case p.Name != spanClient:
				st.selfNs["service.peer"] += self
			case p.Route == readRoute:
				st.selfNs[spanHandler] += self
				st.readHandler = append(st.readHandler, us(s.dur()))
			case p.Route == kindRoutes[opIngest]:
				st.selfNs["service.ingest"] += self
				st.ingest = append(st.ingest, us(s.dur()))
			default:
				st.selfNs["service.put"] += self
			}
		case spanForward:
			st.forward = append(st.forward, us(s.dur()))
			st.selfNs[spanForward] += self
		case spanReplicate:
			st.replicate = append(st.replicate, us(s.dur()))
			st.selfNs[spanReplicate] += self
		}
	}
	return st
}

// stageStats summarizes the server's own stage spans for the read route, as
// polled from GET /debug/traces on every node.
type stageStats struct {
	records int
	stages  map[string][]float64 // µs per stage, over records that have it
	totals  map[string]float64   // µs per stage, summed over all records
}

// pollStages reads each node's trace ring every 250 ms until ctx ends.
func pollStages(ctx context.Context, bases []string, readRoute string) *stageStats {
	st := &stageStats{stages: map[string][]float64{}, totals: map[string]float64{}}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	seen := map[string]bool{}
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, base := range bases {
			var doc struct {
				Traces []struct {
					Span  string `json:"span"`
					Node  string `json:"node"`
					Kind  string `json:"kind"`
					Route string `json:"route"`
					Spans []struct {
						Name string  `json:"name"`
						Dur  float64 `json:"durMicros"`
					} `json:"spans"`
				} `json:"traces"`
			}
			if err := getJSON(ctx, hc, base+"/debug/traces", &doc); err != nil {
				continue
			}
			for _, tr := range doc.Traces {
				k := tr.Node + "/" + tr.Span
				if tr.Kind != "" || tr.Route != readRoute || seen[k] {
					continue
				}
				seen[k] = true
				st.records++
				for _, sp := range tr.Spans {
					st.stages[sp.Name] = append(st.stages[sp.Name], sp.Dur)
					st.totals[sp.Name] += sp.Dur
				}
			}
		}
		select {
		case <-ctx.Done():
			return st
		case <-tick.C:
		}
	}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeCounters sums every sample of the named families across the nodes'
// Prometheus expositions.
func scrapeCounters(bases []string, names ...string) (map[string]float64, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	for _, base := range bases {
		resp, err := hc.Get(base + "/metrics?format=prom")
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		fams, err := obs.ParseExposition(body)
		if err != nil {
			return nil, fmt.Errorf("parse %s/metrics: %w", base, err)
		}
		for _, f := range fams {
			if !want[f.Name] {
				continue
			}
			for _, s := range f.Samples {
				if s.Name == f.Name {
					out[f.Name] += s.Value
				}
			}
		}
	}
	return out, nil
}
