// Package service exposes the statistics catalog and Subprogram Est-IO as a
// long-running HTTP JSON API — the estimation service a query optimizer
// calls on its planning hot path. Est-IO is "a handful of float operations",
// so the service is engineered for high QPS on small requests:
//
//   - every request resolves statistics through one lock-free catalog
//     snapshot load (package catalog), and runs the snapshot's pre-compiled
//     estimator (core.CompiledEstimator) rather than interpreting the
//     statistics entry per call;
//   - a lock-free open-addressed memo cache (CLOCK eviction) absorbs
//     re-costed identical single-estimate shapes, keyed by (index,
//     generation, B, sigma, S) so catalog updates invalidate implicitly;
//     batch items bypass it and tally their metrics once per batch;
//   - the two estimate routes bypass encoding/json entirely: pooled
//     append-based encoding and a specialized batch decoder (codec.go) keep
//     the steady-state serving path at a handful of allocations per request
//     while emitting byte-identical JSON;
//   - POST /v1/estimate/batch amortizes HTTP and JSON overhead across the
//     many candidate plans an optimizer costs per query;
//   - in cluster mode every node answers both estimate routes from its own
//     replica, never through a peer; a write's X-Epfis-Fence token makes a
//     replica that lacks the write refuse instead (cluster.go);
//   - every counter lives in one obs registry, recorded through direct
//     instrument pointers; GET /metrics renders it as the Prometheus text
//     exposition, the one rendering.
//
// Routes:
//
//	GET    /v1/estimate                     one estimate (query parameters)
//	POST   /v1/estimate/batch               many estimates in one round trip
//	GET    /v1/indexes                      catalog listing
//	PUT    /v1/indexes/{table}/{column}     install statistics
//	DELETE /v1/indexes/{table}/{column}     drop statistics
//	POST   /v1/reload                       re-read the catalog file
//	GET    /healthz                         liveness + build info + generation
//	GET    /metrics                         Prometheus text exposition
//	GET    /debug/traces                    recent request traces (JSON)
//	GET    /debug/traces/{traceid}          one trace, stitched across the cluster
//	GET    /debug/accuracy                  continuous estimator-accuracy telemetry
//	GET    /v1/cluster/metrics              federated cluster-wide metrics
//
// Invalid estimation inputs surface as HTTP 400 carrying the core package's
// typed sentinel message; unknown indexes as 404. Handlers run behind
// panic-recovery middleware, and Run drains in-flight requests on context
// cancellation (SIGTERM in cmd/epfis-serve).
//
// Config.RequestTimeout is enforced per route. Routes that can block on I/O
// (mutations, ingest, reload, the cluster and stitched-trace routes) run
// under the http.TimeoutHandler watchdog. Every other route — the two
// estimate routes included — runs inline on the connection's goroutine and
// is bounded where its time can actually go: local work is pure CPU (batches
// capped by MaxBatch), and the batch body read carries a read deadline. In
// cluster mode too both estimate routes answer from the local snapshot and
// never wait on a peer. Either way a timed-out request answers 503
// {"error":"request timed out"}.
//
// # Resilience
//
// The service degrades explicitly instead of failing wholesale:
//
//   - Admission control bounds in-flight requests per route; excess load is
//     shed with 429 + Retry-After before it queues (healthz and metrics are
//     exempt, so operators can always observe an overloaded instance).
//   - A circuit breaker guards the disk-touching paths (install, delete,
//     reload): consecutive persistence failures open it, and further
//     mutations are rejected with 503 + Retry-After until a cooldown probe
//     succeeds. Estimate reads never touch the breaker — they are lock-free
//     snapshot loads and keep working against the last good catalog.
//   - Degraded mode: when a reload fails (corrupt file, injected fault, bad
//     disk) the last good snapshot stays published and the service keeps
//     answering from it; /healthz and /metrics report "degraded" with the
//     stale generation and the reload error until a reload succeeds.
//   - While draining on shutdown, /healthz turns 503 with Retry-After so
//     load balancers rotate the instance out.
//
// Persistence failures surface as 503 (retryable), never as wrong answers.
//
// # Observability
//
// A zero-allocation observability core (package obs) is threaded through
// every request: per-route latency histograms and status-class counters,
// estimate-shape distributions (requested B, sigma, per-index counts), and
// bridges over the cache, breaker, degraded, and catalog state, all
// exported as the Prometheus text exposition GET /metrics answers to every
// request, whatever its Accept header or query. Requests carry W3C
// traceparent identities — inbound headers are re-parented, absent or
// malformed ones replaced — with per-stage spans (parse/cache/estimate/
// encode) recorded into pooled buffers and retained in a fixed ring served
// by GET /debug/traces. Lifecycle and degradation events are structured
// log/slog records (Config.Slog). The hot path records into preallocated
// atomics only: with tracing and histograms enabled the estimate routes
// stay within the committed alloc budgets (TestAllocBudgetSingleTraced and
// TestAllocBudgetBatch64Traced).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/obs"
	"epfis/internal/resilience"
	"epfis/internal/stats"
)

// Defaults for Config zero values.
const (
	DefaultCacheEntries   = 4096
	DefaultRequestTimeout = 5 * time.Second
	DefaultMaxBatch       = 1024
	DefaultMaxInflight    = 256

	maxBodyBytes = 8 << 20 // PUT bodies carry histograms; batches carry many inputs

	// timeoutBody is what every timed-out request answers with 503, whether
	// the watchdog or an inline deadline caught it.
	timeoutBody = `{"error":"request timed out"}`

	// idleTimeout closes keep-alive connections that sit idle this long, so
	// an abandoned client cannot pin a connection and its goroutine forever.
	idleTimeout = 60 * time.Second
)

// errOverloaded is the admission-control shed response body.
var errOverloaded = errors.New("service overloaded, retry later")

// Config configures New. Store is required; everything else defaults.
type Config struct {
	// Store is the catalog the service reads and writes.
	Store *catalog.Store
	// CacheEntries sizes the Est-IO memo cache (total entries across
	// shards), which serves single estimates only; batch items bypass it.
	// 0 = DefaultCacheEntries; negative disables memoization.
	CacheEntries int
	// RequestTimeout bounds each request's total handling time: through the
	// http.TimeoutHandler watchdog on routes that can block on I/O, and by
	// per-wait deadlines on the inline routes (see the package comment).
	// 0 = DefaultRequestTimeout; negative disables the timeout.
	RequestTimeout time.Duration
	// MaxBatch caps the number of inputs per batch request.
	// 0 = DefaultMaxBatch.
	MaxBatch int
	// MaxInflight bounds concurrently handled requests per route; excess
	// requests are shed with 429 + Retry-After. /healthz and /metrics are
	// exempt. 0 = DefaultMaxInflight; negative disables admission control.
	MaxInflight int
	// BreakerFailures is the consecutive persistence-failure count that
	// opens the circuit breaker guarding disk-touching routes.
	// 0 = resilience.DefaultBreakerFailures; negative disables the breaker.
	BreakerFailures int
	// BreakerCooldown is how long the opened breaker rejects mutations
	// before probing again. 0 = resilience.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Slog receives structured service logs (lifecycle, panics, request
	// tracing, degraded-mode transitions, breaker state changes); nil
	// discards them.
	Slog *slog.Logger
	// TraceRing sizes the ring of recently completed request traces served
	// at GET /debug/traces. 0 = DefaultTraceRing; negative disables request
	// tracing entirely (no traceparent handling, no span recording).
	TraceRing int
	// SlowTrace is the duration at which a completed request is flagged
	// slow: counted in epfis_traces_slow_total and logged at warn.
	// 0 = DefaultSlowTrace; negative flags every request (tests, drills).
	SlowTrace time.Duration
	// Cluster enables cluster mode: read fences on the estimate routes,
	// mutation replication, ingest forwarding, and the /v1/cluster/* routes.
	// nil (the default) keeps the single-node serving path — one pointer
	// check per request, no other cost.
	Cluster *cluster.Node
	// Transport is the HTTP transport for ingest forwarding and
	// replication. nil = the pooled cluster transport. Cluster mode only;
	// the seam faultnet injectors plug into.
	Transport http.RoundTripper
	// ReplicateTimeout bounds each per-peer replication send, so one
	// partitioned peer costs a timeout, never a hung client mutation; the
	// next gossip round repairs the missed send. 0 =
	// DefaultReplicateTimeout. Cluster mode only.
	ReplicateTimeout time.Duration
	// WriteQuorum is W: how many of a key's ring owners must acknowledge a
	// mutation before the client's request succeeds (the local apply counts
	// when this node owns the key). 0 = majority of the owner set; positive
	// = that many (capped at the owner count); negative = no quorum (the
	// pre-quorum best-effort behaviour). Cluster mode only.
	WriteQuorum int
	// HandoffDir is where an older release kept its hint and stamp
	// journals. A stamp journal found here is imported into a file-backed
	// store once, then removed; leftover *.hints files are left unread,
	// since the WAL holds each hinted write with its stamp and anti-entropy
	// delivers it. Cluster mode only.
	HandoffDir string
	// IngestQueue bounds the trace batches queued for the ingest worker;
	// POST /v1/ingest sheds with 429 + Retry-After when it is full.
	// 0 = DefaultIngestQueue; negative disables the ingest route.
	IngestQueue int
	// DriftThreshold is the maximum relative divergence between a live
	// accumulated fetch curve and the published catalog entry before the
	// ingest worker refits and republishes the entry.
	// 0 = DefaultDriftThreshold.
	DriftThreshold float64
}

// reloadFailure records why the service is degraded.
type reloadFailure struct {
	err      string
	staleGen uint64 // generation still being served
	at       time.Time
}

// Server is the estimation service. Construct with New; safe for concurrent
// use.
type Server struct {
	store    *catalog.Store
	cache    *memoCache // nil when disabled
	obs      *serverObs
	handler  http.Handler
	maxBatch int
	timeout  time.Duration // resolved RequestTimeout; 0 = disabled
	idle     time.Duration // Serve's keep-alive idle timeout (idleTimeout)

	inflight map[string]chan struct{} // per-route admission tokens; nil route = unbounded
	breaker  *resilience.Breaker      // nil when disabled
	degraded atomic.Pointer[reloadFailure]
	draining atomic.Bool

	cluster    *cluster.Node // nil = single-node mode
	cobs       *clusterObs   // nil unless cluster mode
	nodeHeader []string      // X-Epfis-Node value, shared by every local answer
	proxyHTTP  *http.Client  // forwarding + replication transport

	// keyLocks order local writes per key (see keyLock), so each key's
	// epoch order equals its apply order while writes to other keys share
	// the store's group commit.
	keyLocks    [keyLockStripes]sync.Mutex
	keySeed     maphash.Seed
	replTimeout time.Duration
	writeQuorum int

	ingest *ingester // nil when the ingest route is disabled
}

// Route names, used as metrics keys.
const (
	routeEstimate    = "GET /v1/estimate"
	routeBatch       = "POST /v1/estimate/batch"
	routeIndexes     = "GET /v1/indexes"
	routeIndex       = "GET /v1/indexes/{key}"
	routePutIndex    = "PUT /v1/indexes/{table}/{column}"
	routeDeleteIndex = "DELETE /v1/indexes/{table}/{column}"
	routeReload      = "POST /v1/reload"
	routeIngest      = "POST /v1/ingest"
	routeHealthz     = "GET /healthz"
	routeMetrics     = "GET /metrics"
	routeTraces      = "GET /debug/traces"
)

// New builds the service around a catalog store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("service: Config.Store is required")
	}
	s := &Server{
		store:    cfg.Store,
		maxBatch: cfg.MaxBatch,
		timeout:  cfg.RequestTimeout,
		idle:     idleTimeout,
		keySeed:  maphash.MakeSeed(), // maphash panics on a zero seed
	}
	if s.maxBatch == 0 {
		s.maxBatch = DefaultMaxBatch
	}
	switch {
	case s.timeout == 0:
		s.timeout = DefaultRequestTimeout
	case s.timeout < 0:
		s.timeout = 0
	}
	switch {
	case cfg.CacheEntries == 0:
		s.cache = newMemoCache(DefaultCacheEntries)
	case cfg.CacheEntries > 0:
		s.cache = newMemoCache(cfg.CacheEntries)
	}
	routeNames := []string{
		routeEstimate, routeBatch, routeIndexes, routeIndex, routePutIndex,
		routeDeleteIndex, routeReload, routeHealthz, routeMetrics,
		routeTraces, routeTrace,
	}
	if cfg.IngestQueue >= 0 {
		routeNames = append(routeNames, routeIngest, routeAccuracy)
	}
	if cfg.Cluster != nil {
		routeNames = append(routeNames,
			routeClusterHealth, routeClusterGossip, routeClusterDigest,
			routeClusterEntries, routeClusterPush, routeClusterMetrics)
	}
	if cfg.BreakerFailures >= 0 {
		s.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Failures: cfg.BreakerFailures,
			Cooldown: cfg.BreakerCooldown,
			// The hook fires only on mutations at runtime, after New has
			// finished wiring s.obs (and guards nil regardless).
			OnStateChange: s.onBreakerChange,
		})
	}
	s.obs = newServerObs(s, cfg, routeNames)
	if cfg.Cluster != nil {
		s.cluster = cfg.Cluster
		s.cobs = newClusterObs(s.obs.reg)
		s.nodeHeader = []string{s.cluster.SelfID()} // len == cap: an Add copies, never writes through
		s.cluster.RegisterMetrics(s.obs.reg)
		// Hand the node the request-trace ring so gossip and anti-entropy
		// hops land next to served requests in /debug/traces (nil when
		// tracing is disabled — the node then skips hop recording).
		s.cluster.SetTraceRing(s.obs.ring)
		tr := cfg.Transport
		if tr == nil {
			// Default to the pooled cluster transport: ingest forwarding and
			// replication share kept-alive connections per peer instead of
			// re-dialing through http.DefaultTransport's 2-idle-conns-per-host
			// pool.
			tr = cluster.SharedTransport()
		}
		// No Client.Timeout: every hop already carries a context deadline —
		// a forwarded ingest batch the watchdog's, replication, stitching
		// and federation the replication timeout. Client.Timeout would arm a
		// second timer, cancel context, and body wrapper on each of them.
		s.proxyHTTP = &http.Client{Transport: tr}
		s.replTimeout = cfg.ReplicateTimeout
		if s.replTimeout <= 0 {
			s.replTimeout = DefaultReplicateTimeout
		}
		s.writeQuorum = cfg.WriteQuorum
		if cfg.HandoffDir != "" && cfg.Store.WALPath() != "" {
			// Stamps live in the store's log; an older release journaled
			// them beside its hints. Import that journal before the first
			// request, so a post-restart pull cannot resurrect a key this
			// node deleted.
			imported, err := importStampJournal(cfg.Store, cfg.HandoffDir)
			if err != nil {
				return nil, err
			}
			for _, st := range imported {
				s.cluster.ObserveEpoch(st.Epoch)
			}
		}
		// A catalog file adopted at open is a refresh like a reload: stamp
		// what it changed before the node serves or gossips.
		if _, err := cfg.Store.StampRefreshed(s.freshStamp); err != nil {
			return nil, fmt.Errorf("service: stamp the adopted catalog: %w", err)
		}
		// A merge, pulled or pushed, runs the post-commit step a local
		// write runs, over the keys it took.
		s.cluster.SetOnMerge(s.afterCommit)
	}
	maxInflight := cfg.MaxInflight
	if maxInflight == 0 {
		maxInflight = DefaultMaxInflight
	}
	if maxInflight > 0 {
		// healthz/metrics stay exempt: an overloaded instance must still be
		// observable and pass (or deliberately fail) its health checks.
		s.inflight = make(map[string]chan struct{})
		for _, route := range []string{
			routeEstimate, routeBatch, routeIndexes, routeIndex,
			routePutIndex, routeDeleteIndex, routeReload,
		} {
			s.inflight[route] = make(chan struct{}, maxInflight)
		}
		// A peer's push shares the PUT route's bound, as the write it
		// carries shares the store's commits.
		s.inflight[routeClusterPush] = s.inflight[routePutIndex]
	}

	s.ingest = newIngester(s, cfg)
	if s.ingest != nil {
		// With a file-backed store, acked ingest batches are journaled in
		// its log and replayed here — before the worker starts, so replay
		// owns the accumulator maps without synchronization.
		if cfg.Store.Path() != "" {
			s.ingest.journal = true
			s.ingest.replay(cfg.Store.IngestRecords())
			cfg.Store.SetIngestSource(s.ingest.liveJournal)
		}
		go s.ingest.run()
	}

	// Each route states whether it can block on I/O. Blocking routes run
	// under the http.TimeoutHandler watchdog, which costs a goroutine, a
	// timer, and a buffered copy of the response per request. Inline routes
	// do local, CPU-bound work on the connection's goroutine; the one wait
	// they can hit, a batch body read, is bounded in handleBatch.
	mux := http.NewServeMux()
	inline := func(route string, h http.HandlerFunc) {
		mux.Handle(route, s.instrument(route, h))
	}
	blocking := func(route string, h http.HandlerFunc) {
		var wh http.Handler = s.instrument(route, h)
		if s.timeout > 0 {
			wh = http.TimeoutHandler(wh, s.timeout, timeoutBody)
		}
		mux.Handle(route, wh)
	}
	inline(routeEstimate, s.handleEstimate)
	inline(routeBatch, s.handleBatch)
	inline(routeIndexes, s.handleIndexes)
	inline(routeIndex, s.handleIndex)
	blocking(routePutIndex, s.handlePutIndex)       // catalog write, quorum push
	blocking(routeDeleteIndex, s.handleDeleteIndex) // catalog write, quorum push
	blocking(routeReload, s.handleReload)           // catalog file read
	if s.ingest != nil {
		// The ingest route carries its own backpressure (the bounded queue)
		// and is exempt from per-route admission control. It journals to the
		// WAL and may forward to the key's ingest home.
		blocking(routeIngest, s.handleIngest)
		inline(routeAccuracy, s.handleAccuracy)
	}
	inline(routeHealthz, s.handleHealthz)
	inline(routeMetrics, s.handleMetrics)
	inline(routeTraces, s.handleTraces)
	blocking(routeTrace, s.handleTrace) // stitches across the cluster
	if s.cluster != nil {
		// Cluster management routes are exempt from admission control (like
		// healthz/metrics): heartbeats and recovery must work under load.
		// They keep the watchdog: gossip reads peer bodies, digest and
		// entries export the store, and metrics fans out to every peer. A
		// push is a write: it shares the PUT route's admission bound and
		// passes the breaker.
		blocking(routeClusterHealth, s.handleClusterHealth)
		blocking(routeClusterGossip, s.handleClusterGossip)
		blocking(routeClusterDigest, s.cluster.HandleDigest)
		blocking(routeClusterEntries, s.cluster.HandleEntries)
		blocking(routeClusterPush, s.handleClusterPush)
		blocking(routeClusterMetrics, s.handleClusterMetrics)
	}
	s.handler = mux
	return s, nil
}

// Handler returns the fully wrapped HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP makes Server itself an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Run listens on addr and serves until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to 10 seconds.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return s.Serve(ctx, ln)
}

// Serve is Run over an existing listener (useful for ephemeral test ports).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       s.idle,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.obs.log.LogAttrs(ctx, slog.LevelInfo, "service listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("indexes", s.store.Len()),
		slog.Uint64("generation", s.store.Generation()))
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Flip health to draining before the listener closes, so balancers
		// checking /healthz rotate this instance out during the drain.
		s.draining.Store(true)
		s.obs.log.LogAttrs(context.Background(), slog.LevelInfo, "service draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("service: shutdown: %w", err)
		}
		return nil
	}
}

// instrument wraps a handler with admission control, panic recovery,
// per-route metrics, and request tracing. The route's instruments are
// resolved once at wrap time, so per-request recording touches no maps. With
// tracing on, the incoming traceparent is parsed (or a fresh identity
// generated), echoed on the response, and a pooled span buffer rides the
// status recorder through the handler; shed (429) responses are recorded in
// the same per-route metrics as handled ones, with their own status label.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	sem := s.inflight[route] // nil for exempt routes or disabled admission
	ro := s.obs.routes[route]
	tracing := s.obs.tracing()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := recPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status, rec.wrote, rec.trace = w, http.StatusOK, false, nil
		if tracing {
			tp, hasParent := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
			var parent obs.SpanID
			if hasParent {
				parent = tp.Span
				tp.Span = obs.NewSpanID()
			} else {
				tp = obs.NewTraceparent()
			}
			tb := obs.GetTraceBuf(tp, route, start)
			tb.Parent, tb.HasParent = parent, hasParent
			rec.trace = tb
			w.Header().Set(obs.TraceparentHeader, tp.String())
		}
		defer func() {
			if p := recover(); p != nil {
				s.obs.panics.Inc()
				s.obs.log.LogAttrs(context.Background(), slog.LevelError, "handler panic",
					slog.String("route", route), slog.Any("panic", p))
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, errors.New("internal error"))
				}
				rec.status = http.StatusInternalServerError
			}
			d := time.Since(start)
			s.obs.observeRoute(ro, rec.status, d)
			if tb := rec.trace; tb != nil {
				slow := s.obs.isSlow(d)
				s.obs.ring.Record(tb, rec.status, start, d, slow)
				if slow && s.obs.log.Enabled(context.Background(), slog.LevelWarn) {
					s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
						slog.String("route", route),
						slog.String("trace", tb.TP.TraceString()),
						slog.Int("status", rec.status),
						slog.Duration("duration", d))
				}
				rec.trace = nil
				obs.PutTraceBuf(tb)
			}
			rec.ResponseWriter = nil
			recPool.Put(rec)
		}()
		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				// The route is saturated: shed now, cheaply, instead of
				// queueing work the client will have timed out on.
				s.obs.sheds.Inc()
				rec.Header().Set("Retry-After", "1")
				writeError(rec, http.StatusTooManyRequests, errOverloaded)
				return
			}
		}
		h(rec, r)
	})
}

// statusRecorder captures the response status for metrics and carries the
// request's trace buffer to the handlers (avoiding a context allocation).
// Instances are pooled by instrument; a recorder is returned to the pool
// only after the handler and its deferred metrics observation are both done
// with it.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
	trace  *obs.TraceBuf
}

var recPool = sync.Pool{New: func() any { return new(statusRecorder) }}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's writer through
// the recorder (handleBatch sets its body read deadline that way).
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// EstimateRequest is one Est-IO input addressed at a catalog entry. S is a
// pointer so "omitted" (no sargable predicates, treated as 1) is
// distinguishable from an explicit out-of-domain 0. Exported for the thin
// Go client (see Client).
type EstimateRequest struct {
	Table  string   `json:"table"`
	Column string   `json:"column"`
	B      int64    `json:"b"`
	Sigma  float64  `json:"sigma"`
	S      *float64 `json:"s,omitempty"`
	Detail bool     `json:"detail,omitempty"`
}

func (r EstimateRequest) sarg() float64 {
	if r.S == nil {
		return 1
	}
	return *r.S
}

// EstimateResponse carries the estimate; Fetches is bit-exact with a direct
// core.EstimateFetches call (JSON float64 encoding round-trips exactly).
type EstimateResponse struct {
	Table      string  `json:"table"`
	Column     string  `json:"column"`
	B          int64   `json:"b"`
	Sigma      float64 `json:"sigma"`
	S          float64 `json:"s"`
	Fetches    float64 `json:"fetches"`
	Generation uint64  `json:"generation"`
	// Cached reports that the memo cache answered. The memo serves single
	// estimates only, so Cached is always false on a batch item.
	Cached bool           `json:"cached"`
	Detail *core.Estimate `json:"detail,omitempty"`
}

// estimateInto resolves in's index against one snapshot and runs Est-IO into
// est. It is the shared core of the single and batch endpoints, and the
// allocation-free center of the serving path: inputs and results travel by
// pointer, and the estimator is the snapshot's pre-compiled form (flat
// slices, no interface dispatch). Every entry a store takes in is
// validated, so every live entry has one: a key without one is absent.
func estimateInto(snap *catalog.Snapshot, in *estimateInput, est *core.Estimate) error {
	ce, ok := snap.Compiled(in.table, in.column)
	if !ok {
		return fmt.Errorf("%w: %s.%s", stats.ErrNotFound, in.table, in.column)
	}
	return ce.EstimateInto(est, core.Input{B: in.b, Sigma: in.sigma, S: in.s})
}

// estimate is estimateInto behind the memo cache, for the single-estimate
// route: it records the request's shape, answers a repeated shape from the
// memo, and memoizes a fresh answer. The memo key is built field-wise and
// carries the snapshot generation, so a catalog write invalidates implicitly
// and a hit can never belong to another generation's statistics. Batch
// items bypass the memo (see handleBatch).
func (s *Server) estimate(snap *catalog.Snapshot, in *estimateInput, out *estimateResult, tb *obs.TraceBuf) error {
	s.obs.observeEstimate(in.table, in.column, in.b, in.sigma)
	out.gen = snap.Generation()
	out.cached = false
	key := memoKey{table: in.table, column: in.column, gen: out.gen, b: in.b, sigma: in.sigma, sarg: in.s}
	tb.Mark(obs.StageCache)
	if s.cache != nil {
		if est, hit := s.cache.get(key); hit {
			out.est = est
			out.cached = true
			s.obs.estimates.Inc()
			return nil
		}
	}
	tb.Mark(obs.StageEstimate)
	if err := estimateInto(snap, in, &out.est); err != nil {
		return err
	}
	if s.cache != nil {
		s.cache.put(key, out.est)
	}
	s.obs.estimates.Inc()
	return nil
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tb := traceOf(w)
	tb.Mark(obs.StageParse)
	var in estimateInput
	if err := parseEstimateQuery(r, &in); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.cluster != nil && !s.clusterEstimate(w, r, &in) {
		return
	}
	var res estimateResult
	if err := s.estimate(s.store.Snapshot(), &in, &res, tb); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	tb.Mark(obs.StageEncode)
	buf := getBuf()
	b := appendEstimateResponse(*buf, &in, &res)
	b = append(b, '\n') // json.Encoder.Encode appended one; stay byte-identical
	writeResponseBytes(w, http.StatusOK, b)
	*buf = b
	putBuf(buf)
	tb.CloseSpan()
}

// BatchRequest and BatchResponse amortize per-request overhead: one HTTP
// round trip and one JSON document for the dozens of candidate plans an
// optimizer costs while planning a single query.
type BatchRequest struct {
	Requests []EstimateRequest `json:"requests"`
}

// BatchItem is one batch result: an estimate, or a per-item error.
type BatchItem struct {
	Estimate *EstimateResponse `json:"estimate,omitempty"`
	Error    string            `json:"error,omitempty"`
	Status   int               `json:"status,omitempty"`
}

// BatchResponse is the batch endpoint's document.
type BatchResponse struct {
	Count      int         `json:"count"`
	Failed     int         `json:"failed"`
	Generation uint64      `json:"generation"`
	Items      []BatchItem `json:"items"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tb := traceOf(w)
	tb.Mark(obs.StageParse)
	if s.timeout > 0 {
		// The one wait an inline batch can hit is a client trickling its
		// body; a read deadline bounds it. net/http resets the deadline
		// before the connection's next request. Writers without deadline
		// support (in-process callers) have no socket to wait on.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.timeout))
	}
	scratch := getBatchScratch()
	defer putBatchScratch(scratch)
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), scratch.body)
	scratch.body = body
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// The deadline stays armed, so net/http's post-handler discard of
			// the unread body fails fast and the connection closes.
			writeTimeout(w)
			return
		}
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			// Oversized bodies get the typed sentinel and 413, same as
			// too-many-requests below: a forwarding node sheds the request
			// instead of buffering it.
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%w: body exceeds %d bytes", ErrBatchTooLarge, mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request body: %w", err))
		return
	}
	// One string conversion for the whole body; every item field decodes as a
	// substring of it.
	if err := decodeBatchBody(string(body), s.maxBatch, scratch); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrBatchTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	if len(scratch.reqs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch has no requests"))
		return
	}
	var stale map[[2]string]error
	if s.cluster != nil {
		w.Header()[cluster.HeaderNode] = s.nodeHeader
		// Fences are checked before the snapshot load (see staleFences).
		if stale, err = s.staleFences(r); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	// One snapshot for the whole batch: every item is costed against the
	// same catalog generation even if a writer lands mid-flight.
	snap := s.store.Snapshot()
	res := estimateResult{gen: snap.Generation()}
	idx := s.obs.indexCounters()
	items := scratch.items[:0]
	failed, refused := 0, 0
	// Batch items share one aggregate estimate span (per-item spans would
	// overflow the fixed buffer and say little). They skip the memo: a batch
	// carries the distinct shapes of one plan enumeration, which a memo
	// lookup would miss and then pin. Their shapes are tallied in the
	// scratch and reach the shared histograms in one flush per batch.
	tb.Mark(obs.StageEstimate)
	for i := range scratch.reqs {
		in := &scratch.reqs[i]
		if i > 0 {
			items = append(items, ',')
		}
		if stale != nil {
			if err := stale[[2]string{in.table, in.column}]; err != nil {
				// Refused by its fence, not estimated: left out of the
				// estimate metrics, like any item never costed.
				items = appendBatchItemError(items, err.Error(), http.StatusServiceUnavailable)
				refused++
				continue
			}
		}
		// Observed like a single estimate: failures included.
		s.obs.tally(&scratch.tally, in.b, in.sigma)
		if c := idx[obsIndexKey{table: in.table, column: in.column}]; c != nil {
			c.Inc()
		}
		if err := estimateInto(snap, in, &res.est); err != nil {
			items = appendBatchItemError(items, err.Error(), statusOf(err))
			failed++
			continue
		}
		items = append(items, `{"estimate":`...)
		items = appendEstimateResponse(items, in, &res)
		items = append(items, '}')
	}
	s.obs.flushTally(&scratch.tally)
	s.obs.estimates.Add(uint64(len(scratch.reqs) - failed - refused))
	if s.cobs != nil {
		s.cobs.local.Add(uint64(len(scratch.reqs) - refused))
		s.cobs.stale.Add(uint64(refused))
	}
	failed += refused
	scratch.items = items
	tb.Mark(obs.StageEncode)
	out := scratch.out[:0]
	out = append(out, `{"count":`...)
	out = strconv.AppendInt(out, int64(len(scratch.reqs)), 10)
	out = append(out, `,"failed":`...)
	out = strconv.AppendInt(out, int64(failed), 10)
	out = append(out, `,"generation":`...)
	out = strconv.AppendUint(out, snap.Generation(), 10)
	out = append(out, `,"items":[`...)
	out = append(out, items...)
	out = append(out, ']', '}', '\n')
	scratch.out = out
	writeResponseBytes(w, http.StatusOK, out)
	tb.CloseSpan()
}

// indexSummary is one row of the catalog listing.
type indexSummary struct {
	Table            string    `json:"table"`
	Column           string    `json:"column"`
	Pages            int64     `json:"pages"`
	Records          int64     `json:"records"`
	DistinctKeys     int64     `json:"distinctKeys"`
	ClusteringFactor float64   `json:"clusteringFactor"`
	BufferMin        int64     `json:"bufferMin"`
	BufferMax        int64     `json:"bufferMax"`
	CurveKnots       int       `json:"curveKnots"`
	HasHistogram     bool      `json:"hasHistogram"`
	CollectedAt      time.Time `json:"collectedAt"`
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	out := struct {
		Generation uint64         `json:"generation"`
		Count      int            `json:"count"`
		Indexes    []indexSummary `json:"indexes"`
	}{Generation: snap.Generation(), Count: snap.Len(), Indexes: []indexSummary{}}
	for _, key := range snap.Keys() {
		e, ok := snap.Lookup(key)
		if !ok {
			continue
		}
		out.Indexes = append(out.Indexes, summaryOf(e))
	}
	writeJSON(w, http.StatusOK, out)
}

// summaryOf builds one listing row from a catalog entry.
func summaryOf(e *stats.IndexStats) indexSummary {
	return indexSummary{
		Table:            e.Table,
		Column:           e.Column,
		Pages:            e.T,
		Records:          e.N,
		DistinctKeys:     e.I,
		ClusteringFactor: e.C,
		BufferMin:        e.BMin,
		BufferMax:        e.BMax,
		CurveKnots:       len(e.Curve.Knots),
		HasHistogram:     len(e.KeyHistogram) > 0,
		CollectedAt:      e.CollectedAt,
	}
}

// IndexDoc is the GET /v1/indexes/{key} document: one entry's statistics
// summary plus the serving state a client cares about — the generation it
// was read at, whether a compiled estimator backs it, and (in cluster mode)
// the IDs of the nodes owning the key.
type IndexDoc struct {
	Key        string       `json:"key"`
	Generation uint64       `json:"generation"`
	Compiled   bool         `json:"compiled"`
	Summary    indexSummary `json:"summary"`
	Owners     []string     `json:"owners,omitempty"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	snap := s.store.Snapshot()
	e, ok := snap.Lookup(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", stats.ErrNotFound, key))
		return
	}
	_, compiled := snap.CompiledByKey(key)
	doc := IndexDoc{
		Key:        key,
		Generation: snap.Generation(),
		Compiled:   compiled,
		Summary:    summaryOf(e),
	}
	if s.cluster != nil {
		for _, p := range s.cluster.Owners(key) {
			doc.Owners = append(doc.Owners, p.ID)
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handlePutIndex(w http.ResponseWriter, r *http.Request) {
	table, column := r.PathValue("table"), r.PathValue("column")
	var e stats.IndexStats
	if err := decodeJSON(w, r, &e); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if e.Table == "" {
		e.Table = table
	}
	if e.Column == "" {
		e.Column = column
	}
	if e.Table != table || e.Column != column {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("body identifies %s.%s but path identifies %s.%s", e.Table, e.Column, table, column))
		return
	}
	// Validation failures are the client's fault and must not trip the
	// breaker; check before entering the guarded persistence path.
	if err := e.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeLocal(w, e.Table, e.Column, map[string]any{"key": e.Key()}, func(st cluster.Stamp) (uint64, error) {
		return s.store.PutStamped(&e, st)
	})
}

func (s *Server) handleDeleteIndex(w http.ResponseWriter, r *http.Request) {
	table, column := r.PathValue("table"), r.PathValue("column")
	s.writeLocal(w, table, column, map[string]any{}, func(st cluster.Stamp) (uint64, error) {
		ok, gen, err := s.store.DeleteStamped(table, column, st)
		if !ok && (err == nil || errors.Is(err, catalog.ErrStale)) {
			err = fmt.Errorf("%w: %s.%s", stats.ErrNotFound, table, column)
		}
		return gen, err
	})
}

// writeLocal answers a client PUT or DELETE: applyLocal, then, in cluster
// mode, the quorum push and the fence token. ack carries the
// acknowledgement's other fields; a single-node ack has no epoch or fence.
func (s *Server) writeLocal(w http.ResponseWriter, table, column string, ack map[string]any, apply func(cluster.Stamp) (uint64, error)) {
	key := table + "." + column
	gen, st, retryAfter, err := s.applyLocal(key, apply)
	switch {
	case errors.Is(err, stats.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		// Past validation, a write error is persistence trouble or an
		// exhausted clock: retryable.
		writeRetryable(w, http.StatusServiceUnavailable, err, retryAfter)
		return
	}
	ack["generation"] = gen
	if s.cluster != nil {
		tp, traced := requestTrace(w)
		if err := s.replicateQuorum(key, tp, traced); err != nil {
			writeRetryable(w, http.StatusServiceUnavailable,
				fmt.Errorf("replication quorum not met for %s: %w (committed locally, anti-entropy delivers it; safe to retry)", key, err),
				time.Second)
			return
		}
		ack["epoch"] = st.Epoch
		ack["fence"] = fenceToken(table, column, st)
	}
	writeJSON(w, http.StatusOK, ack)
}

// keyLockStripes is the number of mutexes keyLock spreads keys over.
const keyLockStripes = 64

// keyLock returns the mutex that orders local writes of key: its stamp
// assignment and store commit run under it, so stamp order is commit
// order. Keys on other stripes proceed concurrently, so their commits can
// share one WAL fsync.
func (s *Server) keyLock(key string) *sync.Mutex {
	return &s.keyLocks[maphash.String(s.keySeed, key)%keyLockStripes]
}

// applyLocal is the one path of a local write — a client PUT or DELETE, or
// an ingest refit — in single-node and cluster mode alike: the breaker, the
// key's lock, a fresh stamp (Stamp{} off-cluster, where PutStamped and
// DeleteStamped are exactly Put and Delete), the commit, and the
// post-commit step. apply must record the stamp it is given with its write.
// A merge that took a later version of the key between the stamp and the
// commit supersedes this write (catalog.ErrStale): it is acknowledged, and
// its fence passes on the later version, as it would had it landed first.
// An apply error wrapping stats.ErrNotFound, or an exhausted clock, does
// not strike the breaker.
func (s *Server) applyLocal(key string, apply func(cluster.Stamp) (uint64, error)) (gen uint64, st cluster.Stamp, retryAfter time.Duration, err error) {
	commit, retryAfter, err := s.beginMutation()
	if err != nil {
		return 0, st, retryAfter, err
	}
	mu := s.keyLock(key)
	mu.Lock()
	if st, err = s.freshStamp(); err == nil {
		gen, err = apply(st)
	}
	mu.Unlock()
	if errors.Is(err, catalog.ErrStale) {
		gen, err = s.store.Generation(), nil
	}
	commit(err != nil && !errors.Is(err, stats.ErrNotFound) && !errors.Is(err, cluster.ErrClockExhausted))
	if err != nil {
		return 0, st, time.Second, err
	}
	s.afterCommit(gen, []string{key})
	return gen, st, 0, nil
}

// freshStamp assigns the next stamp to a write this node originates; off
// cluster it is the zero Stamp, which stamps nothing.
func (s *Server) freshStamp() (cluster.Stamp, error) {
	if s.cluster == nil {
		return cluster.Stamp{}, nil
	}
	e, err := s.cluster.BumpEpoch()
	return cluster.Stamp{Epoch: e, Origin: s.cluster.SelfID()}, err
}

// afterCommit is the one post-commit step of every write, local or merged:
// it retires the memo cache's other generations — a deleted index's entries
// included — and registers an estimate counter for each key the commit
// touched that the catalog now holds.
func (s *Server) afterCommit(gen uint64, keys []string) {
	if s.cache != nil {
		s.cache.dropOtherGenerations(gen)
	}
	s.obs.syncIndexes(s.store.Snapshot(), keys)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	// A refresh is a write: in cluster mode what it changes carries a fresh
	// stamp, so anti-entropy takes it to every peer (a dropped key is
	// deleted cluster-wide). It touches many keys, so it takes no key lock.
	st, err := s.freshStamp()
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, time.Second)
		return
	}
	commit, retryAfter, err := s.beginMutation()
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, retryAfter)
		return
	}
	gen, err := s.store.ReloadStamped(st)
	if err != nil {
		if errors.Is(err, catalog.ErrNoPath) {
			// Configuration error, not disk trouble: no breaker strike, no
			// degraded mode.
			commit(false)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		commit(true)
		// Keep answering from the last good snapshot and say so loudly.
		s.degraded.Store(&reloadFailure{
			err:      err.Error(),
			staleGen: s.store.Generation(),
			at:       time.Now(),
		})
		s.obs.reloadFailures.Inc()
		s.obs.log.LogAttrs(r.Context(), slog.LevelError, "reload failed, serving degraded",
			slog.Uint64("staleGeneration", s.store.Generation()),
			slog.String("error", err.Error()))
		writeRetryable(w, http.StatusServiceUnavailable, err, time.Second)
		return
	}
	commit(false)
	if s.degraded.Swap(nil) != nil {
		s.obs.log.LogAttrs(r.Context(), slog.LevelInfo, "reload recovered, degraded mode cleared",
			slog.Uint64("generation", gen))
	}
	s.afterCommit(gen, s.store.Keys())
	writeJSON(w, http.StatusOK, map[string]any{"generation": gen, "indexes": s.store.Len()})
}

// beginMutation funnels every disk-touching route through the circuit
// breaker. With the breaker disabled it admits unconditionally.
func (s *Server) beginMutation() (commit func(failure bool), retryAfter time.Duration, err error) {
	if s.breaker == nil {
		return func(bool) {}, 0, nil
	}
	return s.breaker.Begin()
}

// Health is the /healthz document (also returned by Client.Health). The
// build fields let probes distinguish a fresh restart of a new binary from a
// long-running degraded instance.
type Health struct {
	Status          string  `json:"status"` // "ok", "degraded", or "draining"
	Generation      uint64  `json:"generation"`
	Indexes         int     `json:"indexes"`
	UptimeSeconds   float64 `json:"uptimeSeconds"`
	Version         string  `json:"version,omitempty"`   // module version from build info
	Revision        string  `json:"revision,omitempty"`  // vcs.revision from build info
	GoVersion       string  `json:"goVersion,omitempty"` // toolchain that built the binary
	Degraded        bool    `json:"degraded"`
	StaleGeneration uint64  `json:"staleGeneration,omitempty"`
	LastReloadError string  `json:"lastReloadError,omitempty"`
	Breaker         string  `json:"breaker,omitempty"` // closed / half-open / open
	RecoveredAtOpen bool    `json:"recoveredAtOpen,omitempty"`
}

// health assembles the current Health document.
func (s *Server) health() Health {
	snap := s.store.Snapshot()
	bi := buildInfo()
	h := Health{
		Status:          "ok",
		Generation:      snap.Generation(),
		Indexes:         snap.Len(),
		UptimeSeconds:   time.Since(s.obs.start).Seconds(),
		Version:         bi.version,
		Revision:        bi.revision,
		GoVersion:       bi.goVersion,
		RecoveredAtOpen: s.store.Recovered(),
	}
	if s.breaker != nil {
		h.Breaker = s.breaker.State()
	}
	if f := s.degraded.Load(); f != nil {
		h.Status = "degraded"
		h.Degraded = true
		h.StaleGeneration = f.staleGen
		h.LastReloadError = f.err
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	if h.Status == "draining" {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	// Degraded is still 200: the instance answers estimates correctly from
	// the last good generation, so liveness probes must not kill it.
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics answers every request with the registry's Prometheus text
// exposition; the Accept header and query (an older release's ?format=prom)
// are ignored.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	buf := getBuf()
	b := s.obs.reg.AppendText((*buf)[:0])
	_, _ = w.Write(b)
	*buf = b
	putBuf(buf)
}

// statusOf maps domain errors to HTTP statuses: invalid Est-IO inputs are
// client errors, unknown indexes are 404s, anything else is a 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, core.ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, stats.ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error(), "status": status})
}

// writeTimeout answers an inline route's expired deadline with the
// watchdog's 503 body.
func writeTimeout(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = io.WriteString(w, timeoutBody)
}

// writeRetryable is writeError plus a Retry-After header, for 429/503
// responses the client should retry (Client honors the header).
func writeRetryable(w http.ResponseWriter, status int, err error, after time.Duration) {
	secs := int64(after / time.Second)
	if after%time.Second != 0 || secs < 1 {
		secs++ // round up; Retry-After is whole seconds, minimum 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, status, err)
}
