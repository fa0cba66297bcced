package service

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/obs"
)

// Observability defaults for Config zero values.
const (
	DefaultTraceRing = 256
	DefaultSlowTrace = 100 * time.Millisecond
)

// latencyBuckets spans 1µs … ~4s log-spaced: estimates serve in about a
// microsecond while disk-touching mutations run to milliseconds.
var latencyBuckets = obs.ExpBuckets(1e-6, 4, 12)

// pageBuckets spans requested buffer sizes B from one page to 2^24 pages.
var pageBuckets = obs.Pow2Buckets(0, 24)

// sigmaBuckets covers the selectivity fraction domain (0, 1]; values above 1
// land in +Inf and flag malformed traffic.
var sigmaBuckets = []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// statusClasses are the per-route response labels. Shed (429) and
// unavailable/draining (503) responses get their own labels so overload and
// drain behaviour is visible separately from generic 4xx/5xx.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "429", "5xx", "503"}

func statusClass(status int) int {
	switch {
	case status == http.StatusTooManyRequests:
		return 3
	case status == http.StatusServiceUnavailable:
		return 5
	case status >= 500:
		return 4
	case status >= 400:
		return 2
	case status >= 300:
		return 1
	default:
		return 0
	}
}

// routeObs holds one route's hot-path instruments as direct pointers:
// recording is a histogram observe and one counter increment, with no map
// lookups, locks, or allocation.
type routeObs struct {
	lat    *obs.Histogram
	status [len(statusClasses)]*obs.Counter
}

// obsIndexKey addresses a per-index estimate counter. A comparable struct of
// strings: hot-path lookups build it on the stack from fields the request
// already holds, so no key string is ever concatenated while serving.
type obsIndexKey struct{ table, column string }

// serverObs is the server's observability wiring: the metric registry, the
// ring of completed request traces, and the structured logger. Every service
// counter is a registry instrument; GET /metrics renders the registry.
type serverObs struct {
	reg   *obs.Registry
	log   *slog.Logger
	ring  *obs.TraceRing // nil when tracing is disabled
	slow  time.Duration  // negative: every request is flagged slow
	start time.Time      // construction time, for uptime

	routes map[string]*routeObs

	bufferPages        *obs.Histogram
	sigmaDist          *obs.Histogram
	breakerTransitions *obs.Counter

	estimates      *obs.Counter // individual estimates served (batch items count)
	panics         *obs.Counter
	sheds          *obs.Counter // requests rejected by admission control (429)
	reloadFailures *obs.Counter // reloads that left the service degraded

	// Per-index estimate counters: registration happens on catalog mutations
	// under idxMu; the serving path reads an immutable snapshot map through
	// one atomic pointer load.
	idxMu  sync.Mutex
	idxAll map[obsIndexKey]*obs.Counter
	idx    atomic.Pointer[map[obsIndexKey]*obs.Counter]
}

// newServerObs builds the registry and all instruments. Called from New once
// store, cache, breaker, and the degraded/draining flags exist, so the
// scrape-time bridges can close over them.
func newServerObs(s *Server, cfg Config, routes []string) *serverObs {
	o := &serverObs{
		reg:    obs.NewRegistry(),
		log:    newServiceLogger(cfg),
		slow:   cfg.SlowTrace,
		start:  time.Now(),
		routes: make(map[string]*routeObs, len(routes)),
		idxAll: make(map[obsIndexKey]*obs.Counter),
	}
	if o.slow == 0 {
		o.slow = DefaultSlowTrace
	}
	ringSize := cfg.TraceRing
	if ringSize == 0 {
		ringSize = DefaultTraceRing
	}
	if ringSize > 0 {
		o.ring = obs.NewTraceRing(ringSize)
	}

	for _, route := range routes {
		ro := &routeObs{
			lat: o.reg.Histogram("epfis_http_request_duration_seconds",
				"Request latency by route.", latencyBuckets,
				obs.Label{Name: "route", Value: route}),
		}
		for i, class := range statusClasses {
			ro.status[i] = o.reg.Counter("epfis_http_requests_total",
				"Requests served by route and status class; shed (429) and draining/unavailable (503) responses have their own labels.",
				obs.Label{Name: "route", Value: route},
				obs.Label{Name: "status", Value: class})
		}
		o.routes[route] = ro
	}

	o.bufferPages = o.reg.Histogram("epfis_estimate_buffer_pages",
		"Requested LRU buffer capacity B across estimate calls.", pageBuckets)
	o.sigmaDist = o.reg.Histogram("epfis_estimate_sigma",
		"Requested selectivity fraction sigma across estimate calls.", sigmaBuckets)
	o.breakerTransitions = o.reg.Counter("epfis_breaker_transitions_total",
		"Circuit breaker state transitions.")

	o.estimates = o.reg.Counter("epfis_estimates_total",
		"Individual estimates served (batch items count individually).")
	o.panics = o.reg.Counter("epfis_panics_total",
		"Handler panics recovered by the instrumentation middleware.")
	o.sheds = o.reg.Counter("epfis_admission_shed_total",
		"Requests shed with 429 by per-route admission control.")
	o.reloadFailures = o.reg.Counter("epfis_reload_failures_total",
		"Catalog reloads that left the service degraded.")
	o.reg.GaugeFunc("epfis_uptime_seconds",
		"Seconds since the service was constructed.",
		func() float64 { return time.Since(o.start).Seconds() })

	if c := s.cache; c != nil {
		o.reg.CounterFunc("epfis_cache_hits_total", "Est-IO memo cache hits.",
			func() float64 { return float64(c.hits.Load()) })
		o.reg.CounterFunc("epfis_cache_misses_total", "Est-IO memo cache misses.",
			func() float64 { return float64(c.misses.Load()) })
		o.reg.CounterFunc("epfis_cache_evictions_total", "Est-IO memo cache CLOCK evictions.",
			func() float64 { return float64(c.evictions.Load()) })
		o.reg.CounterFunc("epfis_cache_invalidations_total", "Est-IO memo cache invalidations.",
			func() float64 { return float64(c.invalidations.Load()) })
		o.reg.GaugeFunc("epfis_cache_entries", "Live Est-IO memo cache entries.",
			func() float64 { return float64(c.len()) })
	}

	store := s.store
	o.reg.GaugeFunc("epfis_catalog_generation", "Current catalog generation.",
		func() float64 { return float64(store.Generation()) })
	o.reg.GaugeFunc("epfis_catalog_indexes", "Indexes in the current catalog snapshot.",
		func() float64 { return float64(store.Len()) })
	o.reg.GaugeFunc("epfis_catalog_recovered",
		"1 when the catalog was recovered from the previous generation at open.",
		func() float64 { return boolGauge(store.Recovered()) })
	o.reg.GaugeFunc("epfis_degraded",
		"1 while serving from a stale generation after a failed reload.",
		func() float64 { return boolGauge(s.degraded.Load() != nil) })
	o.reg.GaugeFunc("epfis_draining",
		"1 while the service drains in-flight requests during shutdown.",
		func() float64 { return boolGauge(s.draining.Load()) })

	if br := s.breaker; br != nil {
		o.reg.GaugeFunc("epfis_breaker_state",
			"Circuit breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				switch br.State() {
				case "open":
					return 2
				case "half-open":
					return 1
				default:
					return 0
				}
			})
		o.reg.CounterFunc("epfis_breaker_opens_total", "Times the circuit breaker opened.",
			func() float64 { opens, _ := br.Stats(); return float64(opens) })
		o.reg.CounterFunc("epfis_breaker_rejected_total",
			"Mutations rejected while the circuit breaker was open.",
			func() float64 { _, rejected := br.Stats(); return float64(rejected) })
	}

	if o.ring != nil {
		o.reg.CounterFunc("epfis_traces_total", "Completed request traces recorded.",
			func() float64 { total, _ := o.ring.Totals(); return float64(total) })
		o.reg.CounterFunc("epfis_traces_slow_total",
			"Completed traces over the slow-trace threshold.",
			func() float64 { _, slow := o.ring.Totals(); return float64(slow) })
	}

	// Runtime health: evaluated only at scrape time, so the hot path never
	// pays for a ReadMemStats.
	o.reg.GaugeFunc("epfis_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	o.reg.GaugeFunc("epfis_go_heap_alloc_bytes", "Heap bytes allocated and in use.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	o.reg.CounterFunc("epfis_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})

	bi := buildInfo()
	o.reg.GaugeFunc("epfis_build_info", "Constant 1 labelled with build metadata.",
		func() float64 { return 1 },
		obs.Label{Name: "version", Value: bi.version},
		obs.Label{Name: "revision", Value: bi.revision},
		obs.Label{Name: "goversion", Value: bi.goVersion})

	snap := store.Snapshot()
	o.syncIndexes(snap, snap.Keys())
	return o
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// tracing reports whether request tracing is enabled.
func (o *serverObs) tracing() bool { return o.ring != nil }

// isSlow applies the slow-trace threshold (negative flags everything).
func (o *serverObs) isSlow(d time.Duration) bool { return o.slow < 0 || d >= o.slow }

// observeRoute records one served request on the route's histogram and
// status-class counter — direct-pointer updates.
func (o *serverObs) observeRoute(ro *routeObs, status int, d time.Duration) {
	if ro == nil {
		return
	}
	ro.lat.Observe(d.Seconds())
	ro.status[statusClass(status)].Inc()
}

// observeEstimate records the requested (B, sigma) point and the per-index
// traffic counter. The index lookup is one atomic pointer load and one map
// probe with a stack-built comparable key — no allocation.
func (o *serverObs) observeEstimate(table, column string, b int64, sigma float64) {
	o.bufferPages.Observe(float64(b))
	o.sigmaDist.Observe(sigma)
	if c := o.indexCounters()[obsIndexKey{table: table, column: column}]; c != nil {
		c.Inc()
	}
}

// indexCounters returns the published per-index estimate counters (nil
// before the first sync). A batch loads it once for all its items.
func (o *serverObs) indexCounters() map[obsIndexKey]*obs.Counter {
	if m := o.idx.Load(); m != nil {
		return *m
	}
	return nil
}

// shapeTally holds a batch's observations for observeEstimate's two
// histograms, counted locally: the shared histograms then take one bulk add
// per batch, not a bucket add, a count add and a sum CAS per item on cache
// lines every serving goroutine writes. The count slices parallel the
// buckets of bufferPages and sigmaDist.
type shapeTally struct {
	pages, sigma       []uint64
	pagesSum, sigmaSum float64
}

func newShapeTally() shapeTally {
	return shapeTally{
		pages: make([]uint64, len(pageBuckets)+1),
		sigma: make([]uint64, len(sigmaBuckets)+1),
	}
}

func (t *shapeTally) reset() {
	clear(t.pages)
	clear(t.sigma)
	t.pagesSum, t.sigmaSum = 0, 0
}

// tally records one requested (B, sigma) point into t.
func (o *serverObs) tally(t *shapeTally, b int64, sigma float64) {
	pages := float64(b)
	t.pages[o.bufferPages.Bucket(pages)]++
	t.pagesSum += pages
	t.sigma[o.sigmaDist.Bucket(sigma)]++
	t.sigmaSum += sigma
}

// flushTally adds t to the shared histograms.
func (o *serverObs) flushTally(t *shapeTally) {
	o.bufferPages.AddCounts(t.pages, t.pagesSum)
	o.sigmaDist.AddCounts(t.sigma, t.sigmaSum)
}

// syncIndexes registers an estimate counter for each of keys that snap
// holds and that lacks one and, when it registered any, republishes the
// lock-free lookup map once. A key that already has a counter costs one
// lock-free lookup, so a write's cost does not grow with the catalog.
// Called at construction and after every commit (afterCommit) — never on
// the serving path. Counters persist across drops (Prometheus counters
// must not vanish mid-scrape-series).
func (o *serverObs) syncIndexes(snap *catalog.Snapshot, keys []string) {
	have := o.indexCounters()
	var add []obsIndexKey
	for _, key := range keys {
		if e, ok := snap.Lookup(key); ok {
			if k := (obsIndexKey{table: e.Table, column: e.Column}); have[k] == nil {
				add = append(add, k)
			}
		}
	}
	if len(add) == 0 && have != nil {
		return
	}
	o.idxMu.Lock()
	defer o.idxMu.Unlock()
	added := o.idx.Load() == nil
	for _, k := range add {
		if o.addIndexLocked(k) {
			added = true
		}
	}
	if added {
		o.publishIndexesLocked()
	}
}

// addIndexLocked registers k's estimate counter unless it has one,
// reporting whether it did. Caller holds idxMu.
func (o *serverObs) addIndexLocked(k obsIndexKey) bool {
	if _, ok := o.idxAll[k]; ok {
		return false
	}
	o.idxAll[k] = o.reg.Counter("epfis_index_estimates_total",
		"Estimates addressed at each catalog index.",
		obs.Label{Name: "index", Value: k.table + "." + k.column})
	return true
}

// publishIndexesLocked publishes a copy of the registered counters for the
// serving path. Caller holds idxMu.
func (o *serverObs) publishIndexesLocked() {
	pub := make(map[obsIndexKey]*obs.Counter, len(o.idxAll))
	for k, c := range o.idxAll {
		pub[k] = c
	}
	o.idx.Store(&pub)
}

// onBreakerChange is wired as the resilience.Breaker state hook: it counts
// the transition and logs it at warn with structured attrs.
func (s *Server) onBreakerChange(from, to string) {
	o := s.obs
	if o == nil { // transition during New, before wiring completes
		return
	}
	o.breakerTransitions.Inc()
	if o.log.Enabled(context.Background(), slog.LevelWarn) {
		o.log.LogAttrs(context.Background(), slog.LevelWarn, "breaker state change",
			slog.String("from", from), slog.String("to", to))
	}
}

// discardHandler is a no-op slog.Handler. (The stdlib gained one after the
// Go version CI pins, so the service carries its own.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// newServiceLogger resolves the configured structured logger; with none
// set, logs are discarded.
func newServiceLogger(cfg Config) *slog.Logger {
	if cfg.Slog != nil {
		return cfg.Slog
	}
	return slog.New(discardHandler{})
}

// buildMeta is the once-resolved build identification served by /healthz and
// the epfis_build_info metric.
type buildMeta struct{ version, revision, goVersion string }

var buildInfo = sync.OnceValue(func() buildMeta {
	bi := buildMeta{version: "unknown", revision: "unknown", goVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if info.Main.Version != "" {
		bi.version = info.Main.Version
	}
	for _, st := range info.Settings {
		if st.Key == "vcs.revision" {
			bi.revision = st.Value
		}
	}
	return bi
})

// traceOf recovers the request's span buffer from the pooled status
// recorder. A nil result (tracing disabled, or a writer the middleware did
// not wrap) is safe to pass everywhere: TraceBuf methods no-op on nil.
func traceOf(w http.ResponseWriter) *obs.TraceBuf {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.trace
	}
	return nil
}

// traceSpanDoc is one stage in a /debug/traces entry.
type traceSpanDoc struct {
	Name        string  `json:"name"`
	StartMicros float64 `json:"startMicros"`
	DurMicros   float64 `json:"durMicros"`
}

// traceDoc is one completed request or cluster hop in /debug/traces (and in
// stitched cross-node traces), newest first. Node names the recording node;
// Kind/Peer are set on hop records only.
type traceDoc struct {
	Trace          string         `json:"trace"`
	Span           string         `json:"span"`
	Parent         string         `json:"parent,omitempty"`
	Node           string         `json:"node,omitempty"`
	Kind           string         `json:"kind,omitempty"`
	Peer           string         `json:"peer,omitempty"`
	Route          string         `json:"route"`
	Status         int            `json:"status"`
	Start          time.Time      `json:"start"`
	DurationMicros float64        `json:"durationMicros"`
	Slow           bool           `json:"slow"`
	Spans          []traceSpanDoc `json:"spans"`
}

// traceDocOf renders one ring record as its JSON document, stamped with the
// recording node's name.
func traceDocOf(rec obs.TraceRecord, node string) traceDoc {
	td := traceDoc{
		Trace:          rec.TP.TraceString(),
		Span:           rec.TP.Span.String(),
		Node:           node,
		Kind:           rec.Kind,
		Peer:           rec.Peer,
		Route:          rec.Route,
		Status:         rec.Status,
		Start:          rec.Wall,
		DurationMicros: float64(rec.Duration) / 1e3,
		Slow:           rec.Slow,
		Spans:          make([]traceSpanDoc, 0, rec.NSpans),
	}
	if rec.HasParent {
		td.Parent = rec.Parent.String()
	}
	for i := 0; i < rec.NSpans; i++ {
		sp := rec.Spans[i]
		td.Spans = append(td.Spans, traceSpanDoc{
			Name:        sp.Name,
			StartMicros: float64(sp.Start) / 1e3,
			DurMicros:   float64(sp.End-sp.Start) / 1e3,
		})
	}
	return td
}

// nodeName is this server's name in trace documents: the cluster identity
// when clustered, "local" otherwise.
func (s *Server) nodeName() string {
	if s.cluster != nil {
		return s.cluster.SelfID()
	}
	return "local"
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	o := s.obs
	if o.ring == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	slowOnly := r.URL.Query().Get("slow") == "1"
	total, slow := o.ring.Totals()
	out := struct {
		Ring                int        `json:"ring"`
		Total               uint64     `json:"total"`
		Slow                uint64     `json:"slow"`
		SlowThresholdMicros float64    `json:"slowThresholdMicros,omitempty"`
		Traces              []traceDoc `json:"traces"`
	}{Ring: o.ring.Len(), Total: total, Slow: slow, Traces: []traceDoc{}}
	if o.slow > 0 {
		out.SlowThresholdMicros = float64(o.slow) / 1e3
	}
	node := s.nodeName()
	for _, rec := range o.ring.Snapshot() {
		if slowOnly && !rec.Slow {
			continue
		}
		out.Traces = append(out.Traces, traceDocOf(rec, node))
	}
	writeJSON(w, http.StatusOK, out)
}
