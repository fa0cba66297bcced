package service

// Cluster-mode serving: read fences, mutation replication, ingest
// forwarding, and the cluster routes (health, gossip, snapshot, digest,
// entry).
//
// Everything here is reached only when Config.Cluster is set. The single-node
// serving path pays exactly one nil-pointer check per request (s.cluster ==
// nil), so the committed alloc budgets are untouched with cluster mode off.
//
// Routing model: the catalog is fully replicated — mutations fan out to
// every live peer, hinted handoff redelivers what a peer missed, and gossip
// anti-entropy repairs the rest — so every node answers both estimate routes
// from its own snapshot, with no hop. The consistent-hash ring assigns each
// index key an R-way owner set that decides whose acknowledgements make a
// write's quorum and where the key's ingest stream accumulates; it does not
// route reads. Memo-cache locality is the client's side of the bargain:
// ClusterClient sends each key to the member its hash picks first.
//
// Read consistency: an unfenced estimate gets whatever the local replica
// holds, bit-exact with some version of the entry this node applied, which
// may be older than a write another node has acknowledged. Read-your-writes
// takes a fence instead of a hop. Every PUT and DELETE acknowledgement
// carries its write's stamp as a fence token; an estimate that sends the
// token back in X-Epfis-Fence is answered only by a node whose stamp for the
// key has reached it. Any other node refuses with a retryable 503
// (ErrStaleReplica), and the caller tries another node.
//
// Mutation model: every mutation is stamped with a cluster-wide Lamport
// epoch at the node that first receives it, applied locally, then fanned out
// to every live peer with a per-peer timeout. The client's PUT/DELETE
// succeeds only when W of the key's R ring owners acknowledged the write
// (Config.WriteQuorum; majority by default) — otherwise 503, with the local
// apply standing and the missed peers queued as durable hints (handoff.go).
// Receivers apply a replicated mutation only when its (epoch, originator)
// stamp advances the key's last-applied stamp, which makes redelivery
// idempotent and closes the delete-resurrection race: a reordered older PUT
// can no longer overwrite a newer DELETE. The originator tiebreaker decides
// equal epochs — concurrent same-key mutations on both sides of a partition
// — identically on every node, so replicas converge after heal. Applied
// stamps are journaled under HandoffDir (stamps.go) and reloaded at startup,
// so delete tombstones survive restarts and a post-restart snapshot merge
// cannot resurrect a deleted key.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/obs"
	"epfis/internal/stats"
)

// DefaultReplicateTimeout bounds each per-peer replication send when
// Config.ReplicateTimeout is zero: a partitioned peer costs one timeout and
// a hint, never a hung client request.
const DefaultReplicateTimeout = 2 * time.Second

// replicationBuckets grade the per-peer replication send latency (0.5ms to
// ~4s; the last bucket catches timeouts).
var replicationBuckets = obs.ExpBuckets(0.0005, 2, 14)

// Cluster route names (metrics keys, mux patterns).
const (
	routeClusterHealth   = "GET " + cluster.PathHealth
	routeClusterGossip   = "POST " + cluster.PathGossip
	routeClusterSnapshot = "GET " + cluster.PathSnapshot
	routeClusterDigest   = "GET " + cluster.PathDigest
	routeClusterEntry    = "GET " + cluster.PathEntryPrefix + "{key}"
)

// ErrStaleReplica is the retryable 503 for an estimate fenced on a write
// this node has not applied; another node may have it.
var ErrStaleReplica = errors.New("stale replica")

// ErrBadFence is the 400 answered to a malformed X-Epfis-Fence value.
var ErrBadFence = errors.New("malformed fence")

// clusterObs is the cluster-mode serving metrics, registered only in cluster
// mode.
type clusterObs struct {
	local         *obs.Counter
	stale         *obs.Counter
	ingestFwd     *obs.Counter
	ingestFwdFail *obs.Counter
	replicated    *obs.Counter
	replFailures  *obs.Counter
	staleDrops    *obs.Counter
	fastAcks      *obs.Counter

	reg       *obs.Registry
	replLatMu sync.Mutex
	replLat   map[string]*obs.Histogram // per-peer replication send latency
}

func newClusterObs(reg *obs.Registry) *clusterObs {
	const (
		estHelp = "Estimates by disposition: answered from the local replica, or refused by a fence the replica has not reached."
		fwdHelp = "Ingest batches forwarded to a ring owner of their index, by result."
	)
	src := func(v string) obs.Label { return obs.Label{Name: "source", Value: v} }
	res := func(v string) obs.Label { return obs.Label{Name: "result", Value: v} }
	return &clusterObs{
		local:         reg.Counter("epfis_cluster_estimates_total", estHelp, src("local")),
		stale:         reg.Counter("epfis_cluster_estimates_total", estHelp, src("stale")),
		ingestFwd:     reg.Counter("epfis_cluster_ingest_forwarded_total", fwdHelp, res("ok")),
		ingestFwdFail: reg.Counter("epfis_cluster_ingest_forwarded_total", fwdHelp, res("failed")),
		replicated: reg.Counter("epfis_cluster_replication_total",
			"Mutations replicated to peers."),
		replFailures: reg.Counter("epfis_cluster_replication_failures_total",
			"Peer replication sends that failed (hinted handoff redelivers them)."),
		staleDrops: reg.Counter("epfis_cluster_stale_mutations_total",
			"Replicated mutations skipped because the key had already applied an equal or later epoch."),
		fastAcks: reg.Counter("epfis_cluster_quorum_fastacks_total",
			"Quorum verdicts returned while replication sends were still in flight."),
		reg:     reg,
		replLat: map[string]*obs.Histogram{},
	}
}

// observeReplication records one peer send in that peer's latency histogram
// (epfis_cluster_replication_seconds{peer=...,route=...}), registered lazily
// on the first send — never on the single-node serving path. route is the
// hop disposition: "put"/"delete" for quorum fan-out, "handoff" for hint
// redelivery.
func (c *clusterObs) observeReplication(peer, route string, d time.Duration) {
	key := peer + "\x00" + route
	c.replLatMu.Lock()
	h := c.replLat[key]
	if h == nil {
		h = c.reg.Histogram("epfis_cluster_replication_seconds",
			"Replication send latency by peer and route.", replicationBuckets,
			obs.Label{Name: "peer", Value: peer},
			obs.Label{Name: "route", Value: route})
		c.replLat[key] = h
	}
	c.replLatMu.Unlock()
	h.Observe(d.Seconds())
}

// replRoute maps a replication method to its histogram route label.
func replRoute(method string) string {
	if method == http.MethodDelete {
		return "delete"
	}
	return "put"
}

// fenceToken renders the fence a mutation acknowledgement returns: table,
// column, epoch and origin joined by "/". url.PathEscape escapes "/" and ","
// in every field, so a token splits unambiguously for any table, column or
// node ID, and several tokens may share one comma-folded header line.
func fenceToken(table, column string, st cluster.Stamp) string {
	return url.PathEscape(table) + "/" + url.PathEscape(column) + "/" +
		strconv.FormatUint(st.Epoch, 10) + "/" + url.PathEscape(st.Origin)
}

// parseFence is fenceToken's inverse.
func parseFence(tok string) (table, column string, st cluster.Stamp, err error) {
	if parts := strings.Split(strings.TrimSpace(tok), "/"); len(parts) == 4 {
		table, err1 := url.PathUnescape(parts[0])
		column, err2 := url.PathUnescape(parts[1])
		epoch, err3 := strconv.ParseUint(parts[2], 10, 64)
		origin, err4 := url.PathUnescape(parts[3])
		if err1 == nil && err2 == nil && err3 == nil && err4 == nil &&
			table != "" && column != "" && epoch != 0 && origin != "" {
			return table, column, cluster.Stamp{Epoch: epoch, Origin: origin}, nil
		}
	}
	return "", "", st, fmt.Errorf("%w %q: want table/column/epoch/origin, each path-escaped", ErrBadFence, tok)
}

// staleFences returns a refusal, keyed by {table, column}, for each fenced
// index whose stamp here orders before the token's; nil when all pass. A
// stamp is recorded only after the store publishes its write, and
// anti-entropy never touches stamp-tracked keys, so a passing fence means a
// snapshot loaded afterwards holds the write or a later one: callers check
// fences before they load the snapshot.
func (s *Server) staleFences(r *http.Request) (map[[2]string]error, error) {
	var stale map[[2]string]error
	for _, v := range r.Header[cluster.HeaderFence] {
		for _, tok := range strings.Split(v, ",") {
			table, column, st, err := parseFence(tok)
			if err != nil {
				return nil, err
			}
			if s.cluster.KeyStamp(table + "." + column).Less(st) {
				if stale == nil {
					stale = map[[2]string]error{}
				}
				stale[[2]string{table, column}] = fmt.Errorf("%w: %s.%s has not reached epoch %d from %s; try another node",
					ErrStaleReplica, table, column, st.Epoch, st.Origin)
			}
		}
	}
	return stale, nil
}

// clusterEstimate is the single-estimate route's cluster-mode prologue: it
// stamps the answer with this node's ID and checks the fences, answering
// 400 or 503 itself. It reports whether to go on and serve the estimate.
func (s *Server) clusterEstimate(w http.ResponseWriter, r *http.Request, in *estimateInput) bool {
	w.Header()[cluster.HeaderNode] = s.nodeHeader
	stale, err := s.staleFences(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if err := stale[[2]string{in.table, in.column}]; err != nil {
		s.cobs.stale.Inc()
		writeRetryable(w, http.StatusServiceUnavailable, err, time.Second)
		return false
	}
	s.cobs.local.Inc()
	return true
}

// proxyRequest forwards an ingest batch to one owner under ctx, copying the
// response through verbatim. It reports false on transport failure (the
// caller tries the next owner); any completed upstream response — success or
// error — is relayed as-is and reported true.
// The outbound request carries this node's id plus a child traceparent
// derived from the inbound request's trace (read from the request's trace
// buffer, never from response headers), and the sender records one forward
// hop so the stitched trace shows the proxy edge.
func (s *Server) proxyRequest(ctx context.Context, w http.ResponseWriter, p cluster.PeerInfo, path string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, s.cluster.SelfID())
	req.Header.Set(cluster.HeaderNode, s.cluster.SelfID())
	var hop obs.Traceparent
	var parent obs.SpanID
	traced := false
	if tb := traceOf(w); tb != nil {
		parent = tb.TP.Span
		hop = tb.TP.Child()
		traced = true
		req.Header.Set(obs.TraceparentHeader, hop.String())
	}
	start := time.Now()
	resp, err := s.proxyHTTP.Do(req)
	if traced {
		status := 0
		if err == nil {
			status = resp.StatusCode
		}
		s.obs.ring.RecordHop(hop, parent, obs.HopForward, p.ID, path, status, start, time.Since(start))
	}
	if err != nil {
		return false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if id := resp.Header.Get(cluster.HeaderNode); id != "" {
		w.Header().Set(cluster.HeaderNode, id)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// mutationEncoder pairs a buffer with a reusable json.Encoder for the
// replication-body hot path; pooling both means a cluster PUT stops paying
// encoder-state and buffer-growth allocations per call.
type mutationEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var mutationEncPool = sync.Pool{New: func() any {
	m := &mutationEncoder{}
	m.enc = json.NewEncoder(&m.buf)
	return m
}}

// encodeMutationBody renders an entry as the replication fan-out body using
// the pooled encoder. The returned slice is an exact-size caller-owned copy:
// the body outlives this call — detached straggler sends and hint journals
// retain it — so it must never alias pooled memory.
func encodeMutationBody(e *stats.IndexStats) ([]byte, error) {
	m := mutationEncPool.Get().(*mutationEncoder)
	m.buf.Reset()
	if err := m.enc.Encode(e); err != nil {
		mutationEncPool.Put(m)
		return nil, err
	}
	b := bytes.TrimSuffix(m.buf.Bytes(), []byte("\n"))
	out := make([]byte, len(b))
	copy(out, b)
	if m.buf.Cap() <= maxPooledBuf {
		mutationEncPool.Put(m)
	}
	return out, nil
}

// indexPath is the replicated mutation path for one index.
func indexPath(table, column string) string {
	return "/v1/indexes/" + url.PathEscape(table) + "/" + url.PathEscape(column)
}

// replicatedStamp extracts the (epoch, originator) stamp of a replicated
// mutation; replicated is false for locally originated requests. The
// originator is the X-Epfis-Replicated value — receivers never re-forward,
// so the sender is always the node that assigned the epoch.
func replicatedStamp(r *http.Request) (st cluster.Stamp, replicated bool, err error) {
	origin := r.Header.Get(cluster.HeaderReplicated)
	if origin == "" {
		return cluster.Stamp{}, false, nil
	}
	e, perr := strconv.ParseUint(r.Header.Get(cluster.HeaderEpoch), 10, 64)
	if perr != nil {
		return cluster.Stamp{}, true, fmt.Errorf("replicated mutation carries no valid %s header", cluster.HeaderEpoch)
	}
	return cluster.Stamp{Epoch: e, Origin: origin}, true, nil
}

// clusterPut is handlePutIndex's cluster-mode tail (the entry is already
// validated): epoch-gated application for replicated arrivals, epoch-stamped
// quorum fan-out for local originations.
func (s *Server) clusterPut(w http.ResponseWriter, r *http.Request, e *stats.IndexStats) {
	key := e.Key()
	if st, replicated, rerr := replicatedStamp(r); replicated {
		if rerr != nil {
			writeError(w, http.StatusBadRequest, rerr)
			return
		}
		s.applyReplicated(w, key, st, func() (uint64, error) {
			gen, err := s.store.Put(e)
			if err == nil && s.cache != nil {
				s.cache.dropOtherGenerations(gen)
			}
			return gen, err
		})
		return
	}
	body, merr := encodeMutationBody(e)
	if merr != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encode replication body: %w", merr))
		return
	}
	gen, epoch, retryAfter, err := s.applyLocal(key, func() (uint64, error) { return s.store.Put(e) })
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, retryAfter)
		return
	}
	if s.cache != nil {
		s.cache.dropOtherGenerations(gen)
	}
	s.obs.syncIndexes(s.store.Snapshot())
	tp, traced := requestTrace(w)
	if err := s.replicateQuorum(http.MethodPut, indexPath(e.Table, e.Column), body, key, epoch, tp, traced); err != nil {
		writeRetryable(w, http.StatusServiceUnavailable,
			fmt.Errorf("replication quorum not met for %s: %w (applied locally, handoff pending; safe to retry)", key, err),
			time.Second)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "generation": gen, "epoch": epoch,
		"fence": fenceToken(e.Table, e.Column, cluster.Stamp{Epoch: epoch, Origin: s.cluster.SelfID()})})
}

// requestTrace captures the inbound request's trace identity by value —
// replication goroutines outlive the handler, and the TraceBuf behind
// traceOf is pooled, so they must never retain the pointer.
func requestTrace(w http.ResponseWriter) (obs.Traceparent, bool) {
	if tb := traceOf(w); tb != nil {
		return tb.TP, true
	}
	return obs.Traceparent{}, false
}

// clusterDelete is handleDeleteIndex's cluster-mode tail. A replicated
// arrival records the delete's epoch even when the key is already absent —
// that record is the in-memory tombstone that keeps a late older PUT from
// resurrecting the deletion.
func (s *Server) clusterDelete(w http.ResponseWriter, r *http.Request, table, column string) {
	key := table + "." + column
	if st, replicated, rerr := replicatedStamp(r); replicated {
		if rerr != nil {
			writeError(w, http.StatusBadRequest, rerr)
			return
		}
		s.applyReplicated(w, key, st, func() (uint64, error) {
			ok, gen, err := s.store.Delete(table, column)
			if err != nil {
				return 0, err
			}
			if ok && s.cache != nil {
				s.cache.invalidateIndex(table, column)
				s.cache.dropOtherGenerations(gen)
			}
			return gen, nil
		})
		return
	}
	commit, retryAfter, err := s.beginMutation()
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, retryAfter)
		return
	}
	s.clusterMu.Lock()
	epoch := s.cluster.BumpEpoch()
	ok, gen, err := s.store.Delete(table, column)
	if err == nil && ok {
		s.recordStamp(key, cluster.Stamp{Epoch: epoch, Origin: s.cluster.SelfID()})
	}
	s.clusterMu.Unlock()
	commit(err != nil)
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, time.Second)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s.%s", stats.ErrNotFound, table, column))
		return
	}
	if s.cache != nil {
		s.cache.invalidateIndex(table, column)
		s.cache.dropOtherGenerations(gen)
	}
	tp, traced := requestTrace(w)
	if err := s.replicateQuorum(http.MethodDelete, indexPath(table, column), nil, key, epoch, tp, traced); err != nil {
		writeRetryable(w, http.StatusServiceUnavailable,
			fmt.Errorf("replication quorum not met for %s: %w (deleted locally, handoff pending; safe to retry)", key, err),
			time.Second)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"generation": gen, "epoch": epoch,
		"fence": fenceToken(table, column, cluster.Stamp{Epoch: epoch, Origin: s.cluster.SelfID()})})
}

// applyReplicated applies one replicated mutation iff its (epoch, origin)
// stamp advances the key's last-applied stamp — the per-key ordering gate
// that makes replication delivery idempotent (hinted-handoff redelivery,
// client retries) and closes the delete-resurrection race. The originator
// tiebreaker resolves equal epochs, which concurrent mutations on both sides
// of a partition can produce: every node picks the same winner, so replicas
// converge after heal instead of each dropping the other's write as stale.
func (s *Server) applyReplicated(w http.ResponseWriter, key string, st cluster.Stamp, apply func() (uint64, error)) {
	// Fold the originator's epoch in before taking the mutation lock, so a
	// local mutation serialized after this one is stamped strictly above it.
	s.cluster.ObserveEpoch(st.Epoch)
	commit, retryAfter, err := s.beginMutation()
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, retryAfter)
		return
	}
	s.clusterMu.Lock()
	if !s.cluster.KeyStamp(key).Less(st) {
		s.clusterMu.Unlock()
		commit(false)
		s.cobs.staleDrops.Inc()
		writeJSON(w, http.StatusOK, map[string]any{"key": key, "skipped": true, "epoch": st.Epoch})
		return
	}
	gen, err := apply()
	if err == nil {
		s.recordStamp(key, st)
	}
	s.clusterMu.Unlock()
	commit(err != nil)
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, time.Second)
		return
	}
	s.obs.syncIndexes(s.store.Snapshot())
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "generation": gen, "epoch": st.Epoch})
}

// applyLocal runs a locally originated mutation under the cluster mutation
// lock with a freshly assigned epoch, so epoch order matches apply order for
// every same-key mutation flowing through this node.
func (s *Server) applyLocal(key string, apply func() (uint64, error)) (gen, epoch uint64, retryAfter time.Duration, err error) {
	commit, retryAfter, err := s.beginMutation()
	if err != nil {
		return 0, 0, retryAfter, err
	}
	s.clusterMu.Lock()
	epoch = s.cluster.BumpEpoch()
	gen, err = apply()
	if err == nil {
		s.recordStamp(key, cluster.Stamp{Epoch: epoch, Origin: s.cluster.SelfID()})
	}
	s.clusterMu.Unlock()
	commit(err != nil)
	if err != nil {
		return 0, 0, time.Second, err
	}
	return gen, epoch, 0, nil
}

// replicateQuorum fans an epoch-stamped mutation out to every live peer and
// returns as soon as the quorum verdict is decided: the mutation is
// acknowledged when W of the key's R ring owners hold it (the local apply
// counts when this node is an owner), and rejected the moment enough owner
// sends have failed that W is unreachable. Sends that are still in flight
// when the verdict lands — owner stragglers and every non-owner peer —
// detach and finish in the background, still journaling a durable hint on
// failure, so a slow replica costs the client nothing and convergence never
// waits for anti-entropy. Peers that are unreachable up front — dead,
// URL-less — get the hint immediately. A missed quorum returns an error;
// the caller surfaces 503 with the applied-locally contract (retry-safe,
// because every replicated apply is epoch-gated).
func (s *Server) replicateQuorum(method, path string, body []byte, key string, epoch uint64, tp obs.Traceparent, traced bool) error {
	route := replRoute(method)
	var traceVal string
	if traced {
		traceVal = tp.String() // rendered once; hints carry it for redelivery
	}
	owners := map[string]bool{}
	for _, p := range s.cluster.Owners(key) {
		owners[p.ID] = true
	}
	acks := 0
	if owners[s.cluster.SelfID()] {
		acks++
	}
	var live []cluster.PeerInfo
	pending := 0 // owner sends in flight
	for _, p := range s.cluster.Peers() {
		if p.URL == "" || p.State == cluster.StateDead {
			s.cobs.replFailures.Inc()
			s.handoff.enqueue(hintRecord{Peer: p.ID, Method: method, Path: path, Body: body, Epoch: epoch, Key: key, Trace: traceVal})
			continue
		}
		live = append(live, p)
		if owners[p.ID] {
			pending++
		}
	}
	// Buffered to every owner send, so a straggler's late report never
	// blocks its goroutine after the verdict has been returned.
	results := make(chan bool, pending)
	for _, p := range live {
		go func(p cluster.PeerInfo, isOwner bool) {
			hop := tp.Child() // fresh span per peer edge
			start := time.Now()
			status, err := s.replicateTo(p.URL, method, path, body, epoch, hop, traced)
			s.cobs.observeReplication(p.ID, route, time.Since(start))
			if traced {
				s.obs.ring.RecordHop(hop, tp.Span, obs.HopReplicate, p.ID, path, status, start, time.Since(start))
			}
			if err != nil {
				s.cobs.replFailures.Inc()
				s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "replication failed, hint journaled",
					slog.String("peer", p.ID), slog.String("path", path),
					slog.String("error", err.Error()))
				s.handoff.enqueue(hintRecord{Peer: p.ID, Method: method, Path: path, Body: body, Epoch: epoch, Key: key, Trace: traceVal})
			} else {
				s.cobs.replicated.Inc()
			}
			if isOwner {
				results <- err == nil
			}
		}(p, owners[p.ID])
	}
	// Fast-ack loop: stop waiting the moment the verdict is decided — quorum
	// met, or too few owner sends left for it ever to be met.
	need := s.quorumFor(len(owners))
	for acks < need && acks+pending >= need {
		if <-results {
			acks++
		}
		pending--
	}
	if pending > 0 {
		s.cobs.fastAcks.Inc()
	}
	if acks < need {
		return fmt.Errorf("%d/%d owner acks, need %d", acks, len(owners), need)
	}
	return nil
}

// quorumFor resolves Config.WriteQuorum against a key's owner count:
// 0 = majority, positive = that many acks (capped at the owner count),
// negative = none (the local apply suffices; hints still converge peers).
func (s *Server) quorumFor(owners int) int {
	switch {
	case s.writeQuorum < 0:
		return 0
	case s.writeQuorum > 0:
		if s.writeQuorum > owners {
			return owners
		}
		return s.writeQuorum
	default:
		return owners/2 + 1
	}
}

// replicateRepublish fans an ingest-refit entry, already applied and stamped
// at epoch through applyLocal, out like a local PUT. No client waits on it,
// so a missed quorum is logged rather than surfaced; hints still carry the
// refit to every peer eventually. Explicit replication matters here: peers
// tracking an epoch for the key skip it during snapshot merges, so
// anti-entropy alone would never deliver the refit.
func (s *Server) replicateRepublish(e *stats.IndexStats, epoch uint64) {
	key := e.Key()
	body, err := encodeMutationBody(e)
	if err != nil {
		return
	}
	// No client request carries a trace here; a republish starts its own.
	var tp obs.Traceparent
	traced := s.obs.tracing()
	if traced {
		tp = obs.NewTraceparent()
	}
	if err := s.replicateQuorum(http.MethodPut, indexPath(e.Table, e.Column), body, key, epoch, tp, traced); err != nil {
		s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "ingest republish quorum not met",
			slog.String("index", key), slog.String("error", err.Error()))
	}
}

// replicateTo sends one replicated mutation to one peer, bounded by the
// per-peer replication timeout. When traced, the send carries tp as its
// traceparent so the receiver's span re-parents onto the originating trace.
// The returned status is the peer's HTTP answer (0 on transport failure).
func (s *Server) replicateTo(baseURL, method, path string, body []byte, epoch uint64, tp obs.Traceparent, traced bool) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.replTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(cluster.HeaderReplicated, s.cluster.SelfID())
	req.Header.Set(cluster.HeaderNode, s.cluster.SelfID())
	req.Header.Set(cluster.HeaderEpoch, strconv.FormatUint(epoch, 10))
	if traced {
		req.Header.Set(obs.TraceparentHeader, tp.String())
	}
	resp, err := s.proxyHTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// 404 on a replicated delete means the peer already lacks the entry —
	// converged, not failed.
	if resp.StatusCode/100 != 2 && !(method == http.MethodDelete && resp.StatusCode == http.StatusNotFound) {
		return resp.StatusCode, fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// noteClusterMutation accounts for a local mutation that is not forwarded
// (reload): a replicated arrival folds the originator's epoch in, a local
// origination bumps our own so anti-entropy propagates the change.
func (s *Server) noteClusterMutation(r *http.Request) {
	if s.cluster == nil {
		return
	}
	if r.Header.Get(cluster.HeaderReplicated) != "" {
		if e, err := strconv.ParseUint(r.Header.Get(cluster.HeaderEpoch), 10, 64); err == nil {
			s.cluster.ObserveEpoch(e)
		}
		return
	}
	s.cluster.BumpEpoch()
}

// handleClusterHealth serves the membership document: self plus every known
// peer with states, generations, epochs, and catalog hashes.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.HealthDoc())
}

// handleClusterGossip is the heartbeat receiver: fold the sender's document
// in, answer with ours.
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	var doc cluster.Doc
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&doc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode gossip document: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Merge(doc))
}

// handleClusterSnapshot streams the checksummed catalog snapshot — the exact
// trailered on-disk format, so the receiving ImportSnapshot verifies
// integrity end to end. Headers carry the serving node, its epoch, and the
// generation the stream captured.
func (s *Server) handleClusterSnapshot(w http.ResponseWriter, r *http.Request) {
	data, gen, err := s.store.ExportSnapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(cluster.HeaderNode, s.cluster.SelfID())
	h.Set(cluster.HeaderEpoch, strconv.FormatUint(s.cluster.Epoch(), 10))
	h.Set(cluster.HeaderGeneration, strconv.FormatUint(gen, 10))
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleClusterDigest serves the per-entry digest table that drives delta
// anti-entropy: key -> (last applied stamp, CRC32-C of the canonical
// single-entry payload), plus this node's epoch and generation. A behind
// peer diffs it against its own digests and fetches only divergent entries.
func (s *Server) handleClusterDigest(w http.ResponseWriter, r *http.Request) {
	doc, err := s.cluster.DigestDoc()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set(cluster.HeaderNode, s.cluster.SelfID())
	writeJSON(w, http.StatusOK, doc)
}

// handleClusterEntry streams one entry in the trailered catalog framing —
// the delta-sync sibling of handleClusterSnapshot, with the same end-to-end
// checksum verification on the receiving MergeEntries.
func (s *Server) handleClusterEntry(w http.ResponseWriter, r *http.Request) {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad entry key: %w", err))
		return
	}
	data, gen, err := s.store.ExportEntry(key)
	if err != nil {
		if errors.Is(err, stats.ErrNotFound) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(cluster.HeaderNode, s.cluster.SelfID())
	h.Set(cluster.HeaderEpoch, strconv.FormatUint(s.cluster.Epoch(), 10))
	h.Set(cluster.HeaderGeneration, strconv.FormatUint(gen, 10))
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
