package service

// Cluster-mode serving: read fences, quorum pushes, ingest forwarding, and
// the cluster routes (health, gossip, digest, entries, push).
//
// Everything here is reached only when Config.Cluster is set. The single-node
// serving path pays exactly one nil-pointer check per request (s.cluster ==
// nil), so the committed alloc budgets are untouched with cluster mode off.
//
// Routing model: the catalog is fully replicated — every write is pushed to
// every live peer, and anti-entropy (cluster.Node.Sync, triggered by any
// catalog-hash difference at either end of a gossip exchange) repairs
// whatever a peer missed — so every node answers both estimate routes from
// its own snapshot, with no hop. The consistent-hash ring assigns each
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
// Write model: one way in for each kind of write. A local write — a client
// PUT or DELETE, or an ingest refit — takes applyLocal (service.go) in
// every mode: its stamp, a cluster-wide Lamport epoch plus this node's ID,
// is assigned under the key's lock stripe, so each key's stamp order is its
// commit order while writes to other keys share one WAL group commit, and
// the store records the stamp in the write's own commit and WAL frame
// (catalog.Store.PutStamped, DeleteStamped). The coordinator then pushes
// the key's version from its snapshot — the one-key stream PathEntries
// serves, POSTed to PathPush — to every live peer with a per-peer timeout,
// and acknowledges once W of the key's R ring owners answered
// (Config.WriteQuorum; majority by default); otherwise 503, with the local
// commit standing. A send that failed is not journaled: the WAL holds the
// write with its stamp, and the next gossip round's pull delivers it. A
// peer's version enters only through cluster.Node's merge, pushed or
// pulled: it is taken iff it orders after the held version, by stamp and
// then by CRC, inside the store's commit, so redelivery is idempotent, a
// reordered older write never overwrites a newer delete, and a merge beside
// a local write never leaves older content under a newer stamp. The
// originator tiebreaker decides equal epochs identically on every node, so
// replicas converge after a partition heals. Delete tombstones travel in
// pushes and digests alike, so a node that missed a delete — a restarted
// in-memory node included — takes the tombstone instead of resurrecting
// the key. A reload is a write too: what it changes carries a fresh stamp.

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
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/framelog"
	"epfis/internal/obs"
)

// DefaultReplicateTimeout bounds each per-peer replication send when
// Config.ReplicateTimeout is zero: a partitioned peer costs one timeout,
// never a hung client request.
const DefaultReplicateTimeout = 2 * time.Second

// replicationBuckets grade the per-peer replication send latency (0.5ms to
// ~4s; the last bucket catches timeouts).
var replicationBuckets = obs.ExpBuckets(0.0005, 2, 14)

// Cluster route names (metrics keys, mux patterns).
const (
	routeClusterHealth  = "GET " + cluster.PathHealth
	routeClusterGossip  = "POST " + cluster.PathGossip
	routeClusterDigest  = "GET " + cluster.PathDigest
	routeClusterEntries = "POST " + cluster.PathEntries
	routeClusterPush    = "POST " + cluster.PathPush
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
			"Pushes a peer acknowledged."),
		replFailures: reg.Counter("epfis_cluster_replication_failures_total",
			"Pushes that failed or found their peer unreachable (the next gossip round's pull repairs them)."),
		fastAcks: reg.Counter("epfis_cluster_quorum_fastacks_total",
			"Quorum verdicts returned while replication sends were still in flight."),
		reg:     reg,
		replLat: map[string]*obs.Histogram{},
	}
}

// observeReplication records one push in that peer's latency histogram
// (epfis_cluster_replication_seconds{peer=...}), registered lazily on the
// first send — never on the single-node serving path.
func (c *clusterObs) observeReplication(peer string, d time.Duration) {
	c.replLatMu.Lock()
	h := c.replLat[peer]
	if h == nil {
		h = c.reg.Histogram("epfis_cluster_replication_seconds",
			"Replication push latency by peer.", replicationBuckets,
			obs.Label{Name: "peer", Value: peer})
		c.replLat[peer] = h
	}
	c.replLatMu.Unlock()
	h.Observe(d.Seconds())
}

// fenceToken renders the fence a mutation acknowledgement returns: table,
// column, epoch and origin joined by "/". url.PathEscape escapes "/" and ","
// in every field, so a token splits unambiguously for any table, column or
// node ID, and several tokens may share one comma-folded header line.
func fenceToken(table, column string, st cluster.Stamp) string {
	return url.PathEscape(table) + "/" + url.PathEscape(column) + "/" +
		strconv.FormatUint(st.Epoch, 10) + "/" + url.PathEscape(st.Origin)
}

// parseFence is fenceToken's inverse. It accepts only a token fenceToken
// renders, spaces around it aside, so one fence has one spelling.
func parseFence(tok string) (table, column string, st cluster.Stamp, err error) {
	trimmed := strings.TrimSpace(tok)
	if parts := strings.Split(trimmed, "/"); len(parts) == 4 {
		table, err1 := url.PathUnescape(parts[0])
		column, err2 := url.PathUnescape(parts[1])
		epoch, err3 := strconv.ParseUint(parts[2], 10, 64)
		origin, err4 := url.PathUnescape(parts[3])
		st := cluster.Stamp{Epoch: epoch, Origin: origin}
		if err1 == nil && err2 == nil && err3 == nil && err4 == nil &&
			table != "" && column != "" && epoch != 0 && origin != "" && fenceToken(table, column, st) == trimmed {
			return table, column, st, nil
		}
	}
	return "", "", st, fmt.Errorf("%w %q: want table/column/epoch/origin, each path-escaped as an acknowledgement renders it", ErrBadFence, tok)
}

// staleFences returns a refusal, keyed by {table, column}, for each fenced
// index whose stamp here orders before the token's; nil when all pass. A
// stamp is published in the same snapshot as the write it names and never
// moves backwards, so a passing fence means a snapshot loaded afterwards
// holds the write or a later one: callers check fences before they load
// the snapshot.
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

// proxyRequest forwards an ingest batch to the key's ingest home under ctx,
// copying the response through verbatim. It reports false on transport
// failure, which forwardIngest answers with a retryable 503 (it never tries
// another owner); any completed upstream response — success or error — is
// relayed as-is and reported true.
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

// requestTrace captures the inbound request's trace identity by value —
// replication goroutines outlive the handler, and the TraceBuf behind
// traceOf is pooled, so they must never retain the pointer.
func requestTrace(w http.ResponseWriter) (obs.Traceparent, bool) {
	if tb := traceOf(w); tb != nil {
		return tb.TP, true
	}
	return obs.Traceparent{}, false
}

// legacyStampJournal is the stamp journal an older release kept under
// HandoffDir: one JSON {key, epoch, origin} frame per applied stamp.
const legacyStampJournal = "keystamps.journal"

// importStampJournal folds a legacy stamp journal under dir into the store
// as one durable commit, each key keeping its latest stamp, then removes
// the file; it returns the imported stamps. A missing file imports nothing.
// Only a WAL-backed store imports: an in-memory one keeps its stamps in
// memory like its catalog, and stamps for keys its empty catalog lacks
// would make every anti-entropy pull skip them.
func importStampJournal(store *catalog.Store, dir string) (map[string]cluster.Stamp, error) {
	path := filepath.Join(dir, legacyStampJournal)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: read stamp journal: %w", err)
	}
	stamps := map[string]cluster.Stamp{}
	framelog.Scan(data, func(body []byte) bool {
		var rec struct {
			Key    string `json:"key"`
			Epoch  uint64 `json:"epoch"`
			Origin string `json:"origin"`
		}
		if json.Unmarshal(body, &rec) != nil || rec.Key == "" {
			return false
		}
		if st := (cluster.Stamp{Epoch: rec.Epoch, Origin: rec.Origin}); stamps[rec.Key].Less(st) {
			stamps[rec.Key] = st
		}
		return true
	})
	if _, err := store.RecordStamps(stamps); err != nil {
		return nil, fmt.Errorf("service: import stamp journal: %w", err)
	}
	if err := os.Remove(path); err != nil {
		return nil, fmt.Errorf("service: retire imported stamp journal: %w", err)
	}
	return stamps, nil
}

// replicateQuorum pushes key's version in this node's snapshot — the write
// just committed, or a later version that superseded it, so an owner that
// holds it holds a version ordered after the write — to every live peer, as
// the one-key stream PathEntries serves. It returns as soon as the quorum
// verdict is decided: the write is acknowledged when W of the key's R ring
// owners hold it (the local commit counts when this node is an owner), and
// rejected the moment enough owner sends have failed that W is
// unreachable. Sends still in flight when the verdict lands — owner
// stragglers and every non-owner peer — detach and finish in the
// background, bounded by the replication timeout, so a slow replica costs
// the client nothing. A failed send, or a peer unreachable up front (dead,
// URL-less), is counted and logged; the next gossip round's pull repairs
// it. A missed quorum returns an error; the caller surfaces 503 with the
// committed-locally contract (retry-safe: a retry is a later write).
func (s *Server) replicateQuorum(key string, tp obs.Traceparent, traced bool) error {
	// One key always goes, whatever the size bound.
	body, _, err := s.store.ExportEntries([]string{key}, 0)
	if err != nil {
		return fmt.Errorf("render push: %w", err)
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
			status, err := s.pushTo(p.URL, body, hop, traced)
			s.cobs.observeReplication(p.ID, time.Since(start))
			if traced {
				s.obs.ring.RecordHop(hop, tp.Span, obs.HopReplicate, p.ID, cluster.PathPush, status, start, time.Since(start))
			}
			if err != nil {
				s.cobs.replFailures.Inc()
				s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "replication failed, anti-entropy repairs it",
					slog.String("peer", p.ID), slog.String("index", key),
					slog.String("error", err.Error()))
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
// negative = none (the local commit suffices; anti-entropy converges peers).
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

// replicateRepublish pushes an ingest refit, committed through applyLocal,
// like a local PUT. No client waits on it, so a missed quorum is logged
// rather than surfaced; anti-entropy carries the refit to every peer it
// missed on the next gossip round.
func (s *Server) replicateRepublish(key string) {
	// No client request carries a trace here; a republish starts its own.
	var tp obs.Traceparent
	traced := s.obs.tracing()
	if traced {
		tp = obs.NewTraceparent()
	}
	if err := s.replicateQuorum(key, tp, traced); err != nil {
		s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "ingest republish quorum not met",
			slog.String("index", key), slog.String("error", err.Error()))
	}
}

// pushTo POSTs one push stream to one peer, bounded by the per-peer
// replication timeout. When traced, the send carries tp as its traceparent
// so the receiver's span re-parents onto the originating trace. The
// returned status is the peer's HTTP answer (0 on transport failure); any
// 2xx — the version taken, or skipped as not newer — is an ack.
func (s *Server) pushTo(baseURL string, body []byte, tp obs.Traceparent, traced bool) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.replTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+cluster.PathPush, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(cluster.HeaderNode, s.cluster.SelfID())
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
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// handleClusterPush admits a peer's push through the circuit breaker, as a
// PUT is admitted, and merges it (cluster.Node.HandlePush); a merge the
// store failed strikes the breaker.
func (s *Server) handleClusterPush(w http.ResponseWriter, r *http.Request) {
	commit, retryAfter, err := s.beginMutation()
	if err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err, retryAfter)
		return
	}
	commit(!s.cluster.HandlePush(w, r))
}

// handleClusterHealth serves the membership document: self plus every known
// peer with states, generations, epochs, and catalog hashes.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.HealthDoc())
}

// handleClusterGossip is the heartbeat receiver: fold the sender's document
// in, answer with ours. A document that does not decode, or whose sender's
// epoch reaches the peer bound, answers 400.
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	doc, err := cluster.DecodeDoc(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode gossip document: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Merge(doc))
}
