package service

// Durable hinted handoff: the partition-tolerance half of mutation
// replication.
//
// When a replicated mutation cannot reach a peer (partitioned, dead, or just
// slow past the per-peer timeout), the sender journals a hint — the complete
// replicated request plus its epoch — into a per-peer framed log
// (internal/framelog) under Config.HandoffDir and keeps serving. A background
// drainer retries delivery (resilience.Retry behind a per-peer circuit
// breaker) until the peer answers, then compacts the journal by atomically
// rewriting it, so a crash mid-compaction keeps every undelivered hint.
// Because every replicated apply is epoch-gated on the receiver (see
// cluster.go), redelivery is idempotent: at-least-once sends converge to
// exactly-once application.
//
// The journal survives sender crashes — hints are fsynced before the
// originating mutation is acknowledged as quorum-met or surfaced as 503
// "handoff pending" — so an acked mutation can always reach every peer
// eventually, even across a crash of the only node that saw it.
//
// With HandoffDir unset the queues are memory-only: same convergence while
// the process lives, no crash durability (tests, throwaway topologies).

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/obs"
	"epfis/internal/resilience"
)

// DefaultHandoffAbandonAfter is how long hints for a peer absent from
// cluster membership are retained before the queue and its journal are
// dropped (Config.HandoffAbandonAfter overrides; negative keeps them
// forever). The horizon is generous because membership is rebuilt from
// gossip after a restart: a live peer is rediscovered within a heartbeat or
// two, while a decommissioned one never comes back.
const DefaultHandoffAbandonAfter = time.Hour

const (
	// handoffRetryInterval paces the background drainer between sweeps.
	handoffRetryInterval = time.Second
	// handoffCompactAfter is how many delivered-but-still-journaled hints a
	// peer file may accumulate before it is rewritten.
	handoffCompactAfter = 64
)

// hintRecord is one undeliverable replicated mutation, queued for a peer.
// Trace, when set, is the originating request's traceparent; redelivery
// derives child spans from it so a stitched trace shows the handoff edge
// that eventually converged the peer.
type hintRecord struct {
	Peer   string `json:"peer"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   []byte `json:"body,omitempty"`
	Epoch  uint64 `json:"epoch"`
	Key    string `json:"key"`
	Trace  string `json:"trace,omitempty"`
}

// hintQueue is one peer's undelivered hints, oldest first, and their journal.
type hintQueue struct {
	hints     []hintRecord
	delivered int           // delivered hints still in the journal
	log       *framelog.Log // nil while nothing is journaled
}

// handoff is the per-peer hint queues, their journals, and the drainer.
type handoff struct {
	s   *Server
	dir string // "" = memory-only

	mu     sync.Mutex
	queues map[string]*hintQueue // never deleted, so each peer's gauge registers once

	brMu     sync.Mutex
	breakers map[string]*resilience.Breaker

	// drains serializes delivery per peer: the background sweeper and any
	// synchronous DrainHandoff caller must never walk the same queue
	// concurrently, or both would deliver queue[0] and pop twice — silently
	// dropping an undelivered hint.
	drainMu sync.Mutex
	drains  map[string]*sync.Mutex

	// abandonAfter bounds how long hints for a peer absent from membership
	// are kept (a decommissioned or renamed peer never reappears; without a
	// horizon its queue and journal grow forever). absentSince records when a
	// sweep first found each queued peer missing.
	abandonAfter time.Duration
	absentSince  map[string]time.Time

	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	queuedC    *obs.Counter
	deliveredC *obs.Counter
	failuresC  *obs.Counter
	journalC   *obs.Counter
	abandonedC *obs.Counter
}

// newHandoff loads any journaled hints from cfg.HandoffDir and starts the
// drainer. Called from New only in cluster mode.
func newHandoff(s *Server, cfg Config) (*handoff, error) {
	h := &handoff{
		s:            s,
		dir:          cfg.HandoffDir,
		queues:       map[string]*hintQueue{},
		breakers:     map[string]*resilience.Breaker{},
		drains:       map[string]*sync.Mutex{},
		abandonAfter: cfg.HandoffAbandonAfter,
		absentSince:  map[string]time.Time{},
		notify:       make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	if h.abandonAfter == 0 {
		h.abandonAfter = DefaultHandoffAbandonAfter
	}
	if h.dir != "" {
		if err := os.MkdirAll(h.dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: handoff dir: %w", err)
		}
		if err := h.load(); err != nil {
			return nil, err
		}
	}
	reg := s.obs.reg
	h.queuedC = reg.Counter("epfis_cluster_handoff_queued_total",
		"Replicated mutations journaled as hints because a peer was unreachable.")
	h.deliveredC = reg.Counter("epfis_cluster_handoff_delivered_total",
		"Journaled hints delivered to their recovered peer.")
	h.failuresC = reg.Counter("epfis_cluster_handoff_failures_total",
		"Hint delivery attempts that failed (retried on the next sweep).")
	h.journalC = reg.Counter("epfis_cluster_handoff_journal_errors_total",
		"Hint journal writes that failed (the hint stays queued in memory).")
	h.abandonedC = reg.Counter("epfis_cluster_handoff_abandoned_total",
		"Hints dropped because their peer stayed absent from membership past the abandon horizon.")
	reg.GaugeFunc("epfis_cluster_handoff_orphaned",
		"Hints queued for peers currently absent from cluster membership.",
		func() float64 { return float64(h.orphaned()) })
	go h.run()
	return h, nil
}

// hintPath is the journal file for one peer. Peer IDs are escaped so any ID
// maps to a safe file name (and unescapes back on load).
func (h *handoff) hintPath(peer string) string {
	return filepath.Join(h.dir, url.PathEscape(peer)+".hints")
}

// load replays every *.hints journal into the in-memory queues, truncating
// torn tails in place (the crash-during-append case).
func (h *handoff) load() error {
	entries, err := os.ReadDir(h.dir)
	if err != nil {
		return fmt.Errorf("service: handoff dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".hints") {
			continue
		}
		peer, err := url.PathUnescape(strings.TrimSuffix(name, ".hints"))
		if err != nil {
			continue // not one of ours
		}
		q := h.newQueueLocked(peer)
		q.log, err = framelog.Open(faultfs.OS(), filepath.Join(h.dir, name), func(body []byte) bool {
			var rec hintRecord
			if json.Unmarshal(body, &rec) != nil {
				return false
			}
			q.hints = append(q.hints, rec)
			return true
		})
		if err != nil {
			return fmt.Errorf("service: handoff journal %s: %w", name, err)
		}
	}
	return nil
}

// newQueueLocked creates peer's hint queue and registers its lag gauge.
// Caller holds h.mu (or is New, before any concurrency).
func (h *handoff) newQueueLocked(peer string) *hintQueue {
	q := &hintQueue{}
	h.queues[peer] = q
	h.s.obs.reg.GaugeFunc("epfis_cluster_handoff_pending",
		"Hints queued for a peer: mutations applied here that the peer has not acknowledged.",
		func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return float64(len(q.hints))
		},
		obs.Label{Name: "peer", Value: peer})
	return q
}

// appendJSONFrame appends v's JSON encoding to dst as one journal frame —
// the hint and stamp record format. Both record types hold only strings,
// byte slices, and integers, which always encode.
func appendJSONFrame(dst []byte, v any) []byte {
	body, _ := json.Marshal(v)
	return framelog.AppendFrame(dst, body)
}

// enqueue journals a hint (fsynced before return) and queues it for the
// drainer. Journal failures demote the hint to memory-only rather than drop
// it: delivery still happens unless the process dies first.
func (h *handoff) enqueue(rec hintRecord) {
	h.mu.Lock()
	q := h.queues[rec.Peer]
	if q == nil {
		q = h.newQueueLocked(rec.Peer)
	}
	q.hints = append(q.hints, rec)
	if h.dir != "" {
		if err := h.appendLocked(q, rec); err != nil {
			h.journalC.Inc()
			h.s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "handoff journal append failed",
				slog.String("peer", rec.Peer), slog.String("error", err.Error()))
		}
	}
	h.mu.Unlock()
	h.queuedC.Inc()
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// appendLocked journals one hint to its peer's log, opening the log on first
// use. Caller holds h.mu.
func (h *handoff) appendLocked(q *hintQueue, rec hintRecord) error {
	if q.log == nil {
		l, err := framelog.Open(faultfs.OS(), h.hintPath(rec.Peer), nil)
		if err != nil {
			return err
		}
		q.log = l
	}
	return q.log.Append(appendJSONFrame(nil, rec))
}

// compactLocked rewrites a peer's journal to exactly its undelivered queue,
// or removes it once the queue is empty. Caller holds h.mu.
func (h *handoff) compactLocked(q *hintQueue) {
	q.delivered = 0
	if q.log == nil {
		return
	}
	if len(q.hints) == 0 {
		_ = q.log.Remove() // a leftover file only redelivers; epoch gating makes that harmless
		q.log = nil
		return
	}
	var frames []byte
	for _, rec := range q.hints {
		frames = appendJSONFrame(frames, rec)
	}
	if err := q.log.Rewrite(frames); err != nil {
		h.journalC.Inc() // stale frames linger; epoch gating makes redelivery harmless
	}
}

// pending reports the total number of queued hints.
func (h *handoff) pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, q := range h.queues {
		n += len(q.hints)
	}
	return n
}

// drainLock lazily builds the per-peer drain mutex.
func (h *handoff) drainLock(id string) *sync.Mutex {
	h.drainMu.Lock()
	defer h.drainMu.Unlock()
	lk := h.drains[id]
	if lk == nil {
		lk = &sync.Mutex{}
		h.drains[id] = lk
	}
	return lk
}

// breaker lazily builds the per-peer delivery breaker.
func (h *handoff) breaker(peer string) *resilience.Breaker {
	h.brMu.Lock()
	defer h.brMu.Unlock()
	br := h.breakers[peer]
	if br == nil {
		br = resilience.NewBreaker(resilience.BreakerConfig{
			Failures: 3,
			Cooldown: handoffRetryInterval,
		})
		h.breakers[peer] = br
	}
	return br
}

// run is the drainer loop: sweep on enqueue notifications and on a steady
// interval (peers recover without telling us).
func (h *handoff) run() {
	defer close(h.done)
	t := time.NewTicker(handoffRetryInterval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-h.notify:
		case <-t.C:
		}
		h.drainOnce(context.Background(), false)
	}
}

// drainOnce attempts delivery for every peer with pending hints. force
// bypasses dead-peer skips and circuit breakers — the deterministic lever
// for drills and tests. Background (non-forced) sweeps also age out queues
// whose peer has left membership, so hints for a decommissioned or renamed
// peer cannot accumulate forever in memory and on disk.
func (h *handoff) drainOnce(ctx context.Context, force bool) {
	h.mu.Lock()
	peers := make([]string, 0, len(h.queues))
	for id, q := range h.queues {
		if len(q.hints) > 0 {
			peers = append(peers, id)
		}
	}
	h.mu.Unlock()
	if !force {
		peers = h.gcAbsent(peers)
	}
	for _, id := range peers {
		h.drainPeer(ctx, id, force)
	}
}

// gcAbsent splits the queued peers into members and ghosts: peers currently
// in membership drain normally, while a peer absent past the abandon horizon
// has its queue and journal dropped (counted in abandonedC). It returns the
// peers still worth draining.
func (h *handoff) gcAbsent(peers []string) []string {
	known := map[string]bool{}
	for _, p := range h.s.cluster.Peers() {
		known[p.ID] = true
	}
	now := time.Now()
	keep := peers[:0]
	for _, id := range peers {
		if known[id] {
			h.mu.Lock()
			delete(h.absentSince, id)
			h.mu.Unlock()
			keep = append(keep, id)
			continue
		}
		if h.abandonAfter < 0 {
			continue // retained forever, but undeliverable: skip the drain
		}
		h.mu.Lock()
		first, seen := h.absentSince[id]
		if !seen {
			h.absentSince[id] = now
			h.mu.Unlock()
			continue
		}
		if now.Sub(first) <= h.abandonAfter {
			h.mu.Unlock()
			continue
		}
		q := h.queues[id] // only this sweeper empties queues
		dropped := len(q.hints)
		if q.log != nil {
			_ = q.log.Remove() // best effort: a leftover journal reloads into the same fate
		}
		*q = hintQueue{}
		delete(h.absentSince, id)
		h.mu.Unlock()
		h.abandonedC.Add(uint64(dropped))
		h.s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "handoff queue abandoned",
			slog.String("peer", id), slog.Int("hints", dropped),
			slog.Duration("absent", now.Sub(first)))
	}
	return keep
}

// orphaned counts hints queued for peers currently absent from membership
// (the epfis_cluster_handoff_orphaned gauge).
func (h *handoff) orphaned() int {
	known := map[string]bool{}
	for _, p := range h.s.cluster.Peers() {
		known[p.ID] = true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for id, q := range h.queues {
		if !known[id] {
			n += len(q.hints)
		}
	}
	return n
}

// drainPeer delivers one peer's queue in FIFO order, stopping at the first
// failure (order preservation keeps same-key epochs arriving ascending in
// the common case; the receiver's stamp gate handles the rest). Drains are
// serialized per peer: the background sweeper and synchronous DrainHandoff
// callers otherwise race on queue[0] — both deliver the same record, both
// pop, and an undelivered hint vanishes.
func (h *handoff) drainPeer(ctx context.Context, id string, force bool) {
	lk := h.drainLock(id)
	lk.Lock()
	defer lk.Unlock()
	var info cluster.PeerInfo
	found := false
	for _, p := range h.s.cluster.Peers() {
		if p.ID == id {
			info, found = p, true
			break
		}
	}
	if !found || info.URL == "" || (!force && info.State == cluster.StateDead) {
		return
	}
	br := h.breaker(id)
	for {
		if ctx.Err() != nil {
			return
		}
		h.mu.Lock()
		q := h.queues[id]
		if q == nil || len(q.hints) == 0 {
			if q != nil && q.delivered > 0 {
				h.compactLocked(q)
			}
			h.mu.Unlock()
			return
		}
		rec := q.hints[0]
		h.mu.Unlock()

		commit, _, err := br.Begin()
		if err != nil {
			if !force {
				return // breaker open: try again next sweep
			}
			commit = func(bool) {}
		}
		ptp, hasTP := obs.ParseTraceparent(rec.Trace)
		err = resilience.Retry(ctx, resilience.RetryPolicy{
			MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
		}, func(ctx context.Context) error {
			hop := ptp.Child()
			start := time.Now()
			status, rerr := h.s.replicateTo(info.URL, rec.Method, rec.Path, rec.Body, rec.Epoch, hop, hasTP)
			h.s.cobs.observeReplication(id, "handoff", time.Since(start))
			if hasTP {
				h.s.obs.ring.RecordHop(hop, ptp.Span, obs.HopHandoff, id, rec.Path, status, start, time.Since(start))
			}
			return rerr
		})
		commit(err != nil)
		if err != nil {
			h.failuresC.Inc()
			return
		}
		h.mu.Lock()
		// Re-read under the lock: enqueue only appends, and the per-peer
		// drain mutex excludes every other drainer, so index 0 is still the
		// record just delivered (unless gcAbsent dropped the whole queue).
		if q := h.queues[id]; q != nil && len(q.hints) > 0 {
			q.hints = q.hints[1:]
			q.delivered++
			if len(q.hints) == 0 || q.delivered >= handoffCompactAfter {
				h.compactLocked(q)
			}
		}
		h.mu.Unlock()
		h.deliveredC.Inc()
	}
}

// close stops the drainer and releases journal handles.
func (h *handoff) close() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	h.mu.Lock()
	for _, q := range h.queues {
		if q.log != nil {
			q.log.Close()
		}
	}
	h.mu.Unlock()
}

// DrainHandoff synchronously attempts delivery of every queued hint,
// bypassing dead-peer skips and per-peer circuit breakers — the
// deterministic drain lever for partition drills and tests. It reports the
// number of hints still pending afterwards.
func (s *Server) DrainHandoff(ctx context.Context) int {
	if s.handoff == nil {
		return 0
	}
	s.handoff.drainOnce(ctx, true)
	return s.handoff.pending()
}
