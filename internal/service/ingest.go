package service

// Streaming trace ingestion: POST /v1/ingest accepts batched page-reference
// traces from live index scans and keeps the catalog's fetch curves fresh
// without an offline LRU-Fit run.
//
// The route is deliberately asynchronous. The handler validates the batch,
// resolves the index metadata (from the payload, else the current catalog
// entry), and enqueues it on a bounded queue; a full queue sheds with 429 +
// Retry-After, so trace producers get backpressure instead of adding latency
// to the serving path. A single worker goroutine drains the queue and feeds
// each batch into a per-index lrusim.Accum — the incremental Mattson
// simulation, bit-identical to analyzing the concatenated trace in one shot.
//
// When an index's accumulated stream reaches a full scan (N references), the
// worker compares the live fetch curve against the published catalog entry
// on the entry's own modeling grid. If the maximum relative divergence
// exceeds Config.DriftThreshold, it refits the curve (core.LRUFitFromCurve —
// LRU-Fit minus the already-done simulation pass), republishes the entry as
// a new catalog generation through the normal store path (WAL-durable when
// the store is WAL-backed), invalidates stale memo-cache generations, and in
// cluster mode stamps the entry and replicates it to peers like a local PUT.
// Because the accumulator state is exactly the offline simulation's state, a
// republished curve is bit-exact with running core.LRUFit over the same
// trace offline.

// # Crash durability and cluster routing
//
// With a WAL-backed store, every acked batch is journaled first: the handler
// frames the batch (with a dedup ID) into the catalog's CRC32-C WAL
// (walFrameIngest) and fsyncs via group commit before answering 202. At
// startup the journaled batches are replayed into the accumulators — so a
// crash between ack and republish loses nothing — and frames not yet folded
// into a published entry are carried forward across checkpoint rotations.
// Batch IDs make at-least-once delivery safe: a redelivered batch (client
// retry, crash replay of a carried frame) is deduplicated within its
// accumulation window.
//
// In cluster mode each index's stream is accumulated at its ring owners so
// a scan's partial batches never split across nodes: a non-owner forwards
// the batch one hop (X-Epfis-Forwarded), and a forwarded batch landing on a
// non-owner answers 421, so a stale ring cannot loop. Ingest forwarding is
// the one request a node proxies; estimates are always answered locally.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/lrusim"
	"epfis/internal/obs"
	"epfis/internal/storage"
)

// Ingestion defaults for Config zero values.
const (
	DefaultIngestQueue    = 64
	DefaultDriftThreshold = 0.05

	// maxIngestBatchRefs bounds one batch; larger traces must be split
	// (the accumulator makes splits free).
	maxIngestBatchRefs = 1 << 20
)

// IngestRequest is one POST /v1/ingest batch: a slice of the data-page
// reference trace of an index scan, in reference order. T/N/I optionally
// carry the index metadata; when omitted the current catalog entry's
// metadata is used (and the request fails with 400 if the index is unknown).
type IngestRequest struct {
	Table  string           `json:"table"`
	Column string           `json:"column"`
	Pages  []storage.PageID `json:"pages"`
	T      int64            `json:"t,omitempty"`
	N      int64            `json:"n,omitempty"`
	I      int64            `json:"i,omitempty"`
	// BatchID deduplicates at-least-once delivery: a batch redelivered with
	// the same ID within one accumulation window is fed exactly once.
	// Optional; a journaling server assigns one when absent.
	BatchID string `json:"batchId,omitempty"`
}

// IngestResponse acknowledges an accepted batch.
type IngestResponse struct {
	Key       string `json:"key"`
	BatchID   string `json:"batchId,omitempty"`
	Queued    int    `json:"queued"`    // references accepted
	Depth     int    `json:"depth"`     // queue depth after enqueue
	Journaled bool   `json:"journaled"` // durable in the WAL before this ack
}

// ingestBatch is the queued unit of work.
type ingestBatch struct {
	key   string
	id    string // dedup ID; "" when not journaling
	meta  core.Meta
	pages lrusim.Trace
}

// ingestRecord is the WAL frame payload for one journaled batch: the batch
// plus its resolved metadata, so replay does not depend on catalog state.
type ingestRecord struct {
	ID     string           `json:"id,omitempty"`
	Table  string           `json:"table"`
	Column string           `json:"column"`
	T      int64            `json:"t"`
	N      int64            `json:"n"`
	I      int64            `json:"i"`
	Pages  []storage.PageID `json:"pages"`
}

// ingestState is one index's accumulator between batches. Owned by the
// worker goroutine; never touched by handlers.
type ingestState struct {
	accum *lrusim.Accum
	meta  core.Meta
	seen  map[string]struct{} // batch IDs fed into the current window
}

// pendEntry is one journaled batch not yet folded into a published entry.
type pendEntry struct {
	id      string
	payload []byte
}

// ingester is the ingestion subsystem: the bounded queue, the worker, and
// its instruments.
type ingester struct {
	s      *Server
	ch     chan ingestBatch
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	drift  float64
	states map[string]*ingestState

	// accMu guards the per-index accuracy state (written by the worker at
	// every completed scan, read by GET /debug/accuracy) and its lazily
	// registered epfis_accuracy_relerr histograms.
	accMu   sync.Mutex
	acc     map[string]*indexAccuracy
	accHist map[string]*obs.Histogram // keyed index\x00stat

	// journal is set by New when the store is WAL-backed: acked batches are
	// framed into the WAL before the 202 and replayed at startup.
	journal bool
	pendMu  sync.Mutex
	pending map[string][]pendEntry // journaled batches per key, FIFO

	batchRefs         *obs.Histogram
	driftDist         *obs.Histogram
	batches           *obs.Counter
	refs              *obs.Counter
	sheds             *obs.Counter
	scans             *obs.Counter
	republishes       *obs.Counter
	republishFailures *obs.Counter
	journalAppends    *obs.Counter
	journalReplays    *obs.Counter
	journalDups       *obs.Counter
	journalErrs       *obs.Counter
	journalDrops      *obs.Counter
}

// newIngester wires the queue and instruments. Called from New after s.obs
// exists; a nil return means ingestion is disabled. New starts the worker
// itself, after replaying any WAL-journaled batches — replay must own the
// accumulator maps before the goroutine exists.
func newIngester(s *Server, cfg Config) *ingester {
	if cfg.IngestQueue < 0 {
		return nil
	}
	depth := cfg.IngestQueue
	if depth == 0 {
		depth = DefaultIngestQueue
	}
	g := &ingester{
		s:       s,
		ch:      make(chan ingestBatch, depth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		drift:   cfg.DriftThreshold,
		states:  make(map[string]*ingestState),
		pending: make(map[string][]pendEntry),
		acc:     make(map[string]*indexAccuracy),
		accHist: make(map[string]*obs.Histogram),
	}
	if g.drift == 0 {
		g.drift = DefaultDriftThreshold
	}
	reg := s.obs.reg
	g.batchRefs = reg.Histogram("epfis_ingest_batch_refs",
		"Page references per accepted ingest batch.", obs.Pow2Buckets(0, 20))
	g.driftDist = reg.Histogram("epfis_ingest_drift",
		"Relative fetch-curve divergence measured at each completed scan.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
	g.batches = reg.Counter("epfis_ingest_batches_total", "Ingest batches accepted.")
	g.refs = reg.Counter("epfis_ingest_refs_total", "Page references ingested.")
	g.sheds = reg.Counter("epfis_ingest_shed_total",
		"Ingest batches shed with 429 because the queue was full.")
	g.scans = reg.Counter("epfis_ingest_scans_total",
		"Full scans completed by accumulated ingest batches.")
	g.republishes = reg.Counter("epfis_ingest_republish_total",
		"Catalog generations republished because live curves drifted past the threshold.")
	g.republishFailures = reg.Counter("epfis_ingest_republish_failures_total",
		"Drifted curves that failed to refit or persist.")
	g.journalAppends = reg.Counter("epfis_ingest_journal_appends_total",
		"Ingest batches framed into the WAL before acknowledgement.")
	g.journalReplays = reg.Counter("epfis_ingest_journal_replayed_total",
		"Journaled ingest batches replayed into accumulators at startup.")
	g.journalDups = reg.Counter("epfis_ingest_journal_duplicates_total",
		"Redelivered batches deduplicated by ID within their accumulation window.")
	g.journalErrs = reg.Counter("epfis_ingest_journal_errors_total",
		"Ingest batches rejected because the WAL append failed.")
	g.journalDrops = reg.Counter("epfis_ingest_journal_dropped_total",
		"Journal frames skipped at replay because they failed to parse.")
	reg.GaugeFunc("epfis_ingest_queue_depth", "Ingest batches waiting for the worker.",
		func() float64 { return float64(len(g.ch)) })
	reg.GaugeFunc("epfis_ingest_journal_pending",
		"Journaled batches not yet folded into a published catalog entry.",
		func() float64 {
			g.pendMu.Lock()
			n := 0
			for _, q := range g.pending {
				n += len(q)
			}
			g.pendMu.Unlock()
			return float64(n)
		})
	return g
}

// close stops the worker after it drains everything already queued.
func (g *ingester) close() {
	g.once.Do(func() { close(g.stop) })
	<-g.done
}

// Close releases background resources (the ingest worker and the handoff
// drainer). The HTTP handler keeps answering — queued batches are drained
// first, later ones sit in the queue unprocessed — so Close is safe to call
// while a server drains.
func (s *Server) Close() {
	if s.ingest != nil {
		s.ingest.close()
	}
	if s.handoff != nil {
		s.handoff.close()
	}
	if s.stamps != nil {
		s.stamps.close()
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	g := s.ingest
	var req IngestRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Table == "" || req.Column == "" {
		writeError(w, http.StatusBadRequest, errors.New("table and column are required"))
		return
	}
	if len(req.Pages) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("pages must carry at least one reference"))
		return
	}
	if len(req.Pages) > maxIngestBatchRefs {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch carries %d references, max %d; split the trace", len(req.Pages), maxIngestBatchRefs))
		return
	}
	if s.cluster != nil {
		// Ring-ownership routing: an index's stream is accumulated at its
		// owners so a scan's partial batches never split across nodes. A
		// non-owner forwards one hop; a forwarded batch still landing on a
		// non-owner means the sender's ring is stale — 421, never a loop.
		key := req.Table + "." + req.Column
		if !s.cluster.Owns(key) {
			if r.Header.Get(cluster.HeaderForwarded) != "" {
				writeError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("misdirected: this node does not own %s", key))
				return
			}
			s.forwardIngest(w, r, &req, key)
			return
		}
		w.Header().Set(cluster.HeaderNode, s.cluster.SelfID())
	}
	meta := core.Meta{Table: req.Table, Column: req.Column, T: req.T, N: req.N, I: req.I}
	if meta.T <= 0 || meta.N <= 0 || meta.I <= 0 {
		e, err := s.store.Snapshot().Get(req.Table, req.Column)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf(
				"no catalog entry for %s.%s: the batch must carry t, n, and i", req.Table, req.Column))
			return
		}
		meta.T, meta.N, meta.I = e.T, e.N, e.I
	}
	if meta.I > meta.N {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("i = %d exceeds n = %d", meta.I, meta.N))
		return
	}
	batch := ingestBatch{key: req.Table + "." + req.Column, id: req.BatchID, meta: meta, pages: req.Pages}
	journaled := false
	if g.journal {
		if batch.id == "" {
			batch.id = newBatchID()
		}
		// Backpressure first: shed before journaling, so a full queue costs
		// the client a retry, not a WAL frame.
		if len(g.ch) == cap(g.ch) {
			g.sheds.Inc()
			writeRetryable(w, http.StatusTooManyRequests,
				errors.New("ingest queue full, retry later"), time.Second)
			return
		}
		payload, perr := json.Marshal(ingestRecord{
			ID: batch.id, Table: req.Table, Column: req.Column,
			T: meta.T, N: meta.N, I: meta.I, Pages: req.Pages})
		if perr == nil {
			g.addPending(batch.key, batch.id, payload)
			if err := s.store.AppendIngest(payload); err != nil {
				g.dropPending(batch.key, batch.id)
				g.journalErrs.Inc()
				writeRetryable(w, http.StatusServiceUnavailable,
					fmt.Errorf("journal ingest batch: %w", err), time.Second)
				return
			}
			g.journalAppends.Inc()
			journaled = true
		}
		// The frame is durable; if the slot pre-check raced this blocks
		// until the worker frees a slot rather than losing an acked batch.
		select {
		case g.ch <- batch:
		case <-g.stop:
			writeRetryable(w, http.StatusServiceUnavailable,
				errors.New("ingest worker stopped"), time.Second)
			return
		}
	} else {
		select {
		case g.ch <- batch:
		default:
			g.sheds.Inc()
			writeRetryable(w, http.StatusTooManyRequests,
				errors.New("ingest queue full, retry later"), time.Second)
			return
		}
	}
	g.batches.Inc()
	g.refs.Add(uint64(len(req.Pages)))
	g.batchRefs.Observe(float64(len(req.Pages)))
	writeJSON(w, http.StatusAccepted, IngestResponse{
		Key: batch.key, BatchID: batch.id, Queued: len(req.Pages), Depth: len(g.ch),
		Journaled: journaled})
}

// newBatchID draws a random dedup ID for a journaled batch the client did
// not name. "" (rand failure) just disables dedup for that batch.
func newBatchID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// forwardIngest proxies a non-owned ingest batch one hop to a ring owner,
// preserving any client batch ID so owner-side dedup applies across the hop.
func (s *Server) forwardIngest(w http.ResponseWriter, r *http.Request, req *IngestRequest, key string) {
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	for _, p := range s.cluster.Owners(key) {
		if p.ID == s.cluster.SelfID() || p.URL == "" || p.State == cluster.StateDead {
			continue
		}
		if s.proxyRequest(r.Context(), w, p, "/v1/ingest", body) {
			s.cobs.ingestFwd.Inc()
			return
		}
	}
	s.cobs.ingestFwdFail.Inc()
	writeRetryable(w, http.StatusServiceUnavailable,
		fmt.Errorf("no owner reachable for key %s", key), time.Second)
}

// addPending records a journaled batch as live: its frame is carried across
// checkpoint rotations until its window completes.
func (g *ingester) addPending(key, id string, payload []byte) {
	g.pendMu.Lock()
	g.pending[key] = append(g.pending[key], pendEntry{id: id, payload: payload})
	g.pendMu.Unlock()
}

// dropPending unwinds the most recent pending entry with the given ID (the
// journal-append-failure path).
func (g *ingester) dropPending(key, id string) {
	g.pendMu.Lock()
	q := g.pending[key]
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].id == id {
			g.pending[key] = append(q[:i], q[i+1:]...)
			break
		}
	}
	g.pendMu.Unlock()
}

// removePending retires every pending entry whose ID belongs to a completed
// window. Identity-based (not positional) so handler-append vs worker-drain
// interleavings can never retire the wrong batch.
func (g *ingester) removePending(key string, ids map[string]struct{}) {
	if len(ids) == 0 {
		return
	}
	g.pendMu.Lock()
	q := g.pending[key]
	kept := make([]pendEntry, 0, len(q))
	for _, p := range q {
		if _, done := ids[p.id]; !done {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		delete(g.pending, key)
	} else {
		g.pending[key] = kept
	}
	g.pendMu.Unlock()
}

// liveJournal is the store's ingest carry source at checkpoint rotation:
// the frames of every journaled batch not yet folded into a published
// entry, which must survive into the rotated log for crash replay.
func (g *ingester) liveJournal() [][]byte {
	g.pendMu.Lock()
	defer g.pendMu.Unlock()
	var out [][]byte
	for _, q := range g.pending {
		for _, p := range q {
			out = append(out, p.payload)
		}
	}
	return out
}

// replay re-feeds journaled batches recovered from the WAL, in log order,
// rebuilding the accumulator state that was live at the crash. Runs from New
// before the worker goroutine starts, so it owns all worker state.
func (g *ingester) replay(payloads [][]byte) {
	for _, p := range payloads {
		var rec ingestRecord
		if err := json.Unmarshal(p, &rec); err != nil ||
			rec.Table == "" || rec.Column == "" || len(rec.Pages) == 0 {
			g.journalDrops.Inc()
			continue
		}
		b := ingestBatch{
			key:   rec.Table + "." + rec.Column,
			id:    rec.ID,
			meta:  core.Meta{Table: rec.Table, Column: rec.Column, T: rec.T, N: rec.N, I: rec.I},
			pages: rec.Pages,
		}
		g.addPending(b.key, b.id, p)
		g.journalReplays.Inc()
		g.process(b)
	}
}

// run is the worker loop: drain batches until stopped, then drain the
// residue and exit.
func (g *ingester) run() {
	defer close(g.done)
	for {
		select {
		case b := <-g.ch:
			g.process(b)
		case <-g.stop:
			for {
				select {
				case b := <-g.ch:
					g.process(b)
				default:
					return
				}
			}
		}
	}
}

// process feeds one batch into its index's accumulator and evaluates the
// curve when a full scan's worth of references has been accumulated.
func (g *ingester) process(b ingestBatch) {
	st := g.states[b.key]
	if st == nil {
		st = &ingestState{accum: lrusim.NewAccum()}
		g.states[b.key] = st
	}
	st.meta = b.meta
	if b.id != "" {
		if st.seen == nil {
			st.seen = make(map[string]struct{})
		}
		if _, dup := st.seen[b.id]; dup {
			// At-least-once redelivery (client retry, crash replay of a
			// carried frame): the window already holds this batch.
			g.journalDups.Inc()
			return
		}
		st.seen[b.id] = struct{}{}
	}
	if st.accum.Total()+int64(len(b.pages)) > lrusim.MaxAccumRefs {
		// A stream this long can only come from wrong metadata (N never
		// reached); start the accumulator over rather than panic.
		g.s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "ingest accumulator overflow, resetting",
			slog.String("index", b.key), slog.Int64("accumulated", st.accum.Total()))
		g.finishWindow(b.key, st)
		if b.id != "" {
			// This batch opens the fresh window; keep its ID deduplicating.
			st.seen = map[string]struct{}{b.id: {}}
		}
	}
	st.accum.Feed(b.pages)
	if st.accum.Total() >= st.meta.N {
		g.evaluate(b.key, st)
		g.finishWindow(b.key, st)
	}
}

// finishWindow resets the accumulator and retires the window's journal
// bookkeeping: batches folded into a completed (evaluated or abandoned)
// window need no replay, so their frames stop being carried at checkpoint
// rotation and their IDs stop deduplicating.
func (g *ingester) finishWindow(key string, st *ingestState) {
	st.accum.Reset()
	if g.journal {
		g.removePending(key, st.seen)
	}
	st.seen = nil
}

// evaluate compares the accumulated curve against the published entry and
// republishes when the divergence crosses the drift threshold.
func (g *ingester) evaluate(key string, st *ingestState) {
	g.scans.Inc()
	curve := st.accum.Curve()
	snap := g.s.store.Snapshot()
	pub, ok := snap.Lookup(key)
	// No published entry: any live curve is fully divergent.
	drift, meanRel := 1.0, 1.0
	var points []accPoint
	if ok {
		drift, meanRel, points = curveAccuracy(curve, pub.T, pub.Curve.Eval)
	}
	g.driftDist.Observe(drift)
	// Accuracy is recorded on every measurement, not just republishes: the
	// telemetry must show a model staying good, not only one going bad.
	g.recordAccuracy(key, snap.Generation(), st.accum.Total(), drift, meanRel, points)
	if drift < g.drift {
		return
	}
	entry, err := core.LRUFitFromCurve(curve, st.meta, core.Options{})
	if err == nil && pub != nil && len(pub.KeyHistogram) > 0 {
		// The refit models page fetches only; the key-distribution histogram
		// carries over from the published entry.
		entry.KeyHistogram = append(entry.KeyHistogram[:0], pub.KeyHistogram...)
	}
	var gen, epoch uint64
	switch {
	case err == nil && g.s.cluster != nil:
		// The store write and its stamp in one clusterMu section, as for a
		// local PUT: a replicated PUT applied between them would be served
		// under the refit's stamp.
		gen, epoch, _, err = g.s.applyLocal(key, func() (uint64, error) { return g.s.store.Put(entry) })
	case err == nil:
		gen, err = g.s.store.Put(entry)
	}
	if err != nil {
		g.republishFailures.Inc()
		g.s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "ingest republish failed",
			slog.String("index", key), slog.Float64("drift", drift), slog.String("error", err.Error()))
		return
	}
	g.republishes.Inc()
	g.noteRepublish(key, gen)
	if c := g.s.cache; c != nil {
		c.dropOtherGenerations(gen)
	}
	g.s.obs.syncIndexes(g.s.store.Snapshot())
	if g.s.cluster != nil {
		// Explicit fan-out, not just an epoch bump: peers tracking a
		// mutation epoch for this key skip it during snapshot merges, so
		// only replication (plus hinted handoff) delivers the refit
		// everywhere.
		g.s.replicateRepublish(entry, epoch)
	}
	g.s.obs.log.LogAttrs(context.Background(), slog.LevelInfo, "ingest republished catalog entry",
		slog.String("index", key), slog.Float64("drift", drift), slog.Uint64("generation", gen))
}
