package cluster

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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/obs"
)

// Cluster route paths and headers, shared by the node, the service layer
// that mounts the handlers, and the cluster-aware client.
const (
	PathHealth   = "/v1/cluster/health"
	PathGossip   = "/v1/cluster/gossip"
	PathSnapshot = "/v1/cluster/snapshot"
	// PathDigest serves the per-entry digest table (key -> stamp + CRC) that
	// drives delta anti-entropy.
	PathDigest = "/v1/cluster/digest"
	// PathEntryPrefix prefixes single-entry exports; the path-escaped entry
	// key follows it.
	PathEntryPrefix = "/v1/cluster/entry/"

	// HeaderNode carries the sending/serving node ID.
	HeaderNode = "X-Epfis-Node"
	// HeaderEpoch carries the cluster mutation epoch of a replicated
	// mutation or a snapshot stream.
	HeaderEpoch = "X-Epfis-Epoch"
	// HeaderGeneration carries the serving node's catalog generation on a
	// snapshot stream.
	HeaderGeneration = "X-Epfis-Generation"
	// HeaderReplicated marks a mutation as replication fan-out (the value is
	// the originating node ID); receivers apply it locally and do not
	// re-forward.
	HeaderReplicated = "X-Epfis-Replicated"
	// HeaderForwarded marks an ingest batch forwarded to a ring owner (the
	// value is the forwarding node ID); a receiver that still does not own
	// the key answers 421 instead of forwarding again, so stale rings cannot
	// loop.
	HeaderForwarded = "X-Epfis-Forwarded"
	// HeaderFence carries read fences on an estimate: tokens from PUT and
	// DELETE acknowledgements naming writes the answering node must have
	// applied. The header may repeat, one token per key.
	HeaderFence = "X-Epfis-Fence"
)

// snapshotPullTimeout bounds one anti-entropy snapshot transfer.
const snapshotPullTimeout = 30 * time.Second

// DefaultSnapshotMaxBytes caps anti-entropy response bodies (snapshot,
// digest, entry) when Config.SnapshotMaxBytes is zero. A corrupt or hostile
// peer can then cost the puller at most this much memory, never an OOM.
const DefaultSnapshotMaxBytes = 64 << 20

// DefaultDeltaThreshold is the divergence fraction above which delta
// anti-entropy gives up and pulls the full snapshot: fetching more than a
// quarter of the catalog entry-by-entry costs more round trips than one
// bulk stream saves.
const DefaultDeltaThreshold = 0.25

// NodeInfo is one node's record in the gossip documents.
type NodeInfo struct {
	ID          string `json:"id"`
	URL         string `json:"url"`
	State       string `json:"state"`
	Generation  uint64 `json:"generation"`
	Epoch       uint64 `json:"epoch"`
	CatalogHash string `json:"catalogHash,omitempty"`
}

// Doc is the document exchanged by heartbeats and served at
// GET /v1/cluster/health: the sender's own state plus every member it knows.
type Doc struct {
	Self     NodeInfo   `json:"self"`
	Replicas int        `json:"replicas"`
	VNodes   int        `json:"vnodes"`
	Members  []NodeInfo `json:"members"`
}

// Config configures NewNode. SelfID, SelfURL, and Store are required.
type Config struct {
	// SelfID is this node's stable identity on the ring. Placement hashes
	// it, so it must be unique and must survive restarts.
	SelfID string
	// SelfURL is the base URL peers reach this node at (http://host:port).
	SelfURL string
	// Seeds are peer base URLs contacted at startup to join the cluster.
	Seeds []string
	// Replicas is R, the replica-set size per key (0 = DefaultReplicas,
	// capped at MaxReplicas).
	Replicas int
	// VNodes is the virtual nodes per member (0 = DefaultVNodes).
	VNodes int
	// Heartbeat is the gossip interval (0 = DefaultHeartbeat).
	Heartbeat time.Duration
	// SuspectAfter / DeadAfter drive peer state decay (0 = defaults).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Clock replaces time.Now (tests) — the injectable-clock seam shared
	// with resilience.Breaker.
	Clock func() time.Time
	// HTTPClient performs gossip and snapshot transfers; nil uses a private
	// client with sane timeouts.
	HTTPClient *http.Client
	// Store is the node's catalog store; snapshot streaming exports from and
	// imports into it.
	Store *catalog.Store
	// Log receives membership and sync events; nil discards.
	Log *slog.Logger
	// SnapshotMaxBytes caps anti-entropy response bodies (0 =
	// DefaultSnapshotMaxBytes). Oversize responses fail the pull and count
	// in epfis_cluster_antientropy_oversize_total.
	SnapshotMaxBytes int64
	// DeltaThreshold is the fraction of the peer's catalog that may diverge
	// before delta anti-entropy falls back to a full snapshot pull (0 =
	// DefaultDeltaThreshold).
	DeltaThreshold float64
	// MaxIdleConnsPerHost tunes the default pooled transport's per-peer idle
	// connection depth (0 = the process-wide SharedTransport with default
	// tuning). Ignored when HTTPClient is set.
	MaxIdleConnsPerHost int
}

// Node is the per-process cluster agent. Construct with NewNode; all methods
// are safe for concurrent use.
type Node struct {
	cfg   Config
	store *catalog.Store
	mem   *Membership
	hc    *http.Client
	log   *slog.Logger

	ring        atomic.Pointer[Ring]
	ringMu      sync.Mutex    // serializes rebuildRing
	ringVersion atomic.Uint64 // membership version the ring was built at

	epoch atomic.Uint64

	// Per-key last-applied mutation stamps: the ordering guard that keeps a
	// replicated DELETE from being resurrected by a stale PUT (and vice
	// versa), and the skip set for merge-based snapshot pulls. The service
	// layer persists these through its stamp journal (HandoffDir) and
	// re-seeds them via RecordKeyStamp at startup; without that journal they
	// are memory-only.
	keyMu     sync.Mutex
	keyStamps map[string]Stamp

	// Cached catalog content hash, keyed by generation.
	hashMu  sync.Mutex
	hashGen uint64
	hashVal string

	// Cached per-entry digests, keyed by generation (same discipline as the
	// content hash: computing them encodes every entry, so the cache keeps
	// digest serving and delta diffs cheap between mutations).
	digestMu  sync.Mutex
	digestGen uint64
	digestVal map[string]uint32

	pulling atomic.Bool // single-flight guard for anti-entropy syncs

	pullsOK   atomic.Uint64
	pullsFail atomic.Uint64
	rounds    atomic.Uint64

	// Anti-entropy accounting: completed delta syncs, delta syncs that fell
	// back to a full snapshot, bytes received by mode, and responses
	// rejected by the size cap.
	deltaOK       atomic.Uint64
	deltaFallback atomic.Uint64
	bytesDelta    atomic.Uint64
	bytesFull     atomic.Uint64
	oversize      atomic.Uint64

	// Per-peer instruments, registered lazily as peers are discovered.
	obsMu  sync.Mutex
	reg    *obs.Registry
	peerUp map[string]*obs.Gauge
	hbLat  map[string]*obs.Histogram
	aeLat  map[string]*obs.Histogram // anti-entropy latency, keyed peer\x00route

	// traceRing, when attached, receives one hop record per cluster-internal
	// send (gossip, digest/entry/snapshot pulls) so distributed traces show
	// the anti-entropy edges too. Nil = tracing disabled.
	traceRing atomic.Pointer[obs.TraceRing]
}

// NewNode validates cfg and builds the agent. The initial ring contains self
// only (plus any seed-discovered peers after the first Tick); seeds are
// contacted by Run/Tick, never by NewNode.
func NewNode(cfg Config) (*Node, error) {
	if cfg.SelfID == "" {
		return nil, errors.New("cluster: Config.SelfID is required")
	}
	if cfg.SelfURL == "" {
		return nil, errors.New("cluster: Config.SelfURL is required")
	}
	if cfg.Store == nil {
		return nil, errors.New("cluster: Config.Store is required")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 1 || cfg.Replicas > MaxReplicas {
		return nil, fmt.Errorf("cluster: Replicas must be in [1, %d], got %d", MaxReplicas, cfg.Replicas)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(discardHandler{})
	}
	n := &Node{
		cfg:    cfg,
		store:  cfg.Store,
		mem:    NewMembership(cfg.SelfID, cfg.SuspectAfter, cfg.DeadAfter, cfg.Clock),
		log:    cfg.Log,
		peerUp: map[string]*obs.Gauge{},
		hbLat:  map[string]*obs.Histogram{},
		aeLat:  map[string]*obs.Histogram{},
	}
	if n.cfg.SnapshotMaxBytes <= 0 {
		n.cfg.SnapshotMaxBytes = DefaultSnapshotMaxBytes
	}
	if n.cfg.DeltaThreshold <= 0 {
		n.cfg.DeltaThreshold = DefaultDeltaThreshold
	}
	n.hc = cfg.HTTPClient
	if n.hc == nil {
		// Default client rides the pooled cluster transport: gossip and
		// anti-entropy reuse the same kept-alive connections as the service
		// layer's forwarding/replication client.
		tr := http.RoundTripper(SharedTransport())
		if cfg.MaxIdleConnsPerHost > 0 {
			tr = NewTransport(cfg.MaxIdleConnsPerHost)
		}
		n.hc = &http.Client{Timeout: 5 * time.Second, Transport: tr}
	}
	// A node that boots with statistics starts at epoch 1 so empty peers
	// pull from it; an empty node starts at 0 and adopts whatever the
	// cluster has.
	if cfg.Store.Len() > 0 {
		n.epoch.Store(1)
	}
	n.rebuildRing()
	return n, nil
}

// discardHandler mirrors the service's no-op slog handler (the stdlib gained
// one after the Go version CI pins).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// SelfID returns the node's ring identity.
func (n *Node) SelfID() string { return n.cfg.SelfID }

// SelfURL returns the node's advertised base URL.
func (n *Node) SelfURL() string { return n.cfg.SelfURL }

// Replicas returns R, the replica-set size.
func (n *Node) Replicas() int { return n.cfg.Replicas }

// Ring returns the current ring (immutable; one atomic load).
func (n *Node) Ring() *Ring { return n.ring.Load() }

// Owns reports whether this node is in the key's replica set. It is
// allocation-free — the ingest route's ownership check.
func (n *Node) Owns(key string) bool {
	return n.ring.Load().Owns(n.cfg.SelfID, key, n.cfg.Replicas)
}

// Owners returns the key's replica set as peer records, self included (a
// self entry carries this node's own state). Order is ring order: the first
// entry is the primary.
func (n *Node) Owners(key string) []PeerInfo {
	ids := n.ring.Load().Owners(key, n.cfg.Replicas)
	out := make([]PeerInfo, 0, len(ids))
	for _, id := range ids {
		if id == n.cfg.SelfID {
			out = append(out, PeerInfo{ID: id, URL: n.cfg.SelfURL, State: StateAlive})
			continue
		}
		if p, ok := n.mem.Peer(id); ok {
			out = append(out, p)
		} else {
			out = append(out, PeerInfo{ID: id, State: StateSuspect})
		}
	}
	return out
}

// Peers lists the known peers (excluding self).
func (n *Node) Peers() []PeerInfo { return n.mem.Peers() }

// Epoch returns the node's current mutation epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// BumpEpoch advances the mutation epoch for a locally originated catalog
// mutation and returns the new value.
func (n *Node) BumpEpoch() uint64 { return n.epoch.Add(1) }

// ObserveEpoch folds a remote epoch in (Lamport max), so replicated
// mutations and snapshot imports keep epochs comparable cluster-wide.
func (n *Node) ObserveEpoch(e uint64) {
	for {
		cur := n.epoch.Load()
		if e <= cur || n.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Stamp is the total order on same-key mutations: the Lamport epoch the
// mutation was assigned, tie-broken by the originating node ID. Two sides of
// a partition can assign the identical epoch to concurrent mutations of the
// same key (both advance in lockstep from the same base); the originator
// tiebreaker makes every node pick the same winner after heal, so replicas
// converge instead of each dropping the other's write as stale.
type Stamp struct {
	Epoch  uint64 `json:"epoch"`
	Origin string `json:"origin"`
}

// Less reports whether s orders strictly before o: by epoch, then by
// originating node ID. Equal stamps (redelivery of the same mutation) are
// not Less — application stays idempotent.
func (s Stamp) Less(o Stamp) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch < o.Epoch
	}
	return s.Origin < o.Origin
}

// KeyStamp reports the last mutation stamp applied for a key (the zero Stamp
// = no tracked mutation).
func (n *Node) KeyStamp(key string) Stamp {
	n.keyMu.Lock()
	defer n.keyMu.Unlock()
	return n.keyStamps[key]
}

// RecordKeyStamp advances a key's last-applied stamp (monotonic max in Stamp
// order). The service records every applied mutation — local or replicated,
// including deletes, where the record doubles as a tombstone.
func (n *Node) RecordKeyStamp(key string, st Stamp) {
	n.keyMu.Lock()
	if n.keyStamps == nil {
		n.keyStamps = map[string]Stamp{}
	}
	if cur := n.keyStamps[key]; cur.Less(st) {
		n.keyStamps[key] = st
	}
	n.keyMu.Unlock()
}

// HasKeyStamp reports whether a key has a tracked mutation stamp — the skip
// predicate for merge-based snapshot pulls: stamp-tracked keys converge
// through replicated mutations and hinted handoff, not bulk anti-entropy,
// so a pulled snapshot must not clobber (or resurrect) them.
func (n *Node) HasKeyStamp(key string) bool {
	n.keyMu.Lock()
	defer n.keyMu.Unlock()
	return n.keyStamps[key] != Stamp{}
}

// KeyStampCount reports how many keys have a tracked stamp, without copying
// the table — the stamp journal's compaction-pressure check.
func (n *Node) KeyStampCount() int {
	n.keyMu.Lock()
	defer n.keyMu.Unlock()
	return len(n.keyStamps)
}

// KeyStamps copies the tracked stamp table — the compaction source for the
// service's durable stamp journal.
func (n *Node) KeyStamps() map[string]Stamp {
	n.keyMu.Lock()
	defer n.keyMu.Unlock()
	out := make(map[string]Stamp, len(n.keyStamps))
	for k, v := range n.keyStamps {
		out[k] = v
	}
	return out
}

// CatalogHash returns the content hash of the current catalog snapshot,
// cached per generation (computing it encodes the snapshot, so the cache
// keeps heartbeats cheap between mutations).
func (n *Node) CatalogHash() string {
	gen := n.store.Generation()
	n.hashMu.Lock()
	defer n.hashMu.Unlock()
	if n.hashGen == gen && n.hashVal != "" {
		return n.hashVal
	}
	hash, hgen, err := n.store.ContentHash()
	if err != nil {
		return ""
	}
	n.hashGen, n.hashVal = hgen, hash
	return hash
}

// DigestEntry is one entry's record in the digest document: the CRC32-C of
// its canonical single-entry payload plus the last mutation stamp this node
// applied for the key (omitted when untracked — most entries are, and the
// digest document's size is the delta path's fixed wire cost).
type DigestEntry struct {
	CRC   uint32 `json:"crc"`
	Stamp *Stamp `json:"stamp,omitempty"`
}

// DigestDoc is served at GET /v1/cluster/digest: every entry's digest, the
// serving node's epoch, and the generation the digests describe. A behind
// peer diffs it against its own digests and fetches only divergent entries.
type DigestDoc struct {
	Node       string                 `json:"node"`
	Epoch      uint64                 `json:"epoch"`
	Generation uint64                 `json:"generation"`
	Entries    map[string]DigestEntry `json:"entries"`
}

// entryDigests returns the per-entry digest table, cached per generation.
// The returned map is shared — callers must treat it as read-only.
func (n *Node) entryDigests() (map[string]uint32, uint64, error) {
	gen := n.store.Generation()
	n.digestMu.Lock()
	defer n.digestMu.Unlock()
	if n.digestGen == gen && n.digestVal != nil {
		return n.digestVal, n.digestGen, nil
	}
	d, dgen, err := n.store.EntryDigests()
	if err != nil {
		return nil, 0, err
	}
	n.digestGen, n.digestVal = dgen, d
	return d, dgen, nil
}

// DigestDoc assembles the document served at GET /v1/cluster/digest.
func (n *Node) DigestDoc() (DigestDoc, error) {
	digests, gen, err := n.entryDigests()
	if err != nil {
		return DigestDoc{}, err
	}
	doc := DigestDoc{
		Node:       n.cfg.SelfID,
		Epoch:      n.epoch.Load(),
		Generation: gen,
		Entries:    make(map[string]DigestEntry, len(digests)),
	}
	for k, crc := range digests {
		de := DigestEntry{CRC: crc}
		if st := n.KeyStamp(k); st != (Stamp{}) {
			de.Stamp = &st
		}
		doc.Entries[k] = de
	}
	return doc, nil
}

// selfInfo assembles this node's own gossip record.
func (n *Node) selfInfo() NodeInfo {
	return NodeInfo{
		ID:          n.cfg.SelfID,
		URL:         n.cfg.SelfURL,
		State:       StateAlive.String(),
		Generation:  n.store.Generation(),
		Epoch:       n.epoch.Load(),
		CatalogHash: n.CatalogHash(),
	}
}

// HealthDoc assembles the document served at GET /v1/cluster/health and sent
// as the gossip payload.
func (n *Node) HealthDoc() Doc {
	peers := n.mem.Peers()
	doc := Doc{
		Self:     n.selfInfo(),
		Replicas: n.cfg.Replicas,
		VNodes:   n.cfg.VNodes,
		Members:  make([]NodeInfo, 0, len(peers)+1),
	}
	doc.Members = append(doc.Members, doc.Self)
	for _, p := range peers {
		doc.Members = append(doc.Members, NodeInfo{
			ID:          p.ID,
			URL:         p.URL,
			State:       p.State.String(),
			Generation:  p.Generation,
			Epoch:       p.Epoch,
			CatalogHash: p.CatalogHash,
		})
	}
	return doc
}

// Merge folds a received gossip document in: the sender is marked alive with
// the catalog state it reported, and member entries it carries are added to
// the member table (discovery — states are NOT adopted; only direct contact
// makes a peer alive here). It returns this node's own document, which the
// gossip handler echoes back. Merge also feeds anti-entropy: a sender that
// is ahead (higher epoch, different hash) triggers an async snapshot pull.
func (n *Node) Merge(remote Doc) Doc {
	changed := n.mem.Upsert(remote.Self.ID, remote.Self.URL)
	n.mem.ObserveAlive(remote.Self.ID, remote.Self.Generation, remote.Self.Epoch, remote.Self.CatalogHash)
	for _, m := range remote.Members {
		if n.mem.Upsert(m.ID, m.URL) {
			changed = true
		}
	}
	if changed {
		n.rebuildRing()
	}
	n.maybePull(remote.Self)
	// Lamport receive rule, AFTER the pull decision (which keys off the
	// epoch gap): fold the sender's epoch so a restarted node's next local
	// mutation stamps an epoch above everything the cluster has seen —
	// otherwise its writes would be dropped as stale by peers' per-key
	// epoch guards.
	n.ObserveEpoch(remote.Self.Epoch)
	return n.HealthDoc()
}

// rebuildRing rebuilds the ring from the current member set if the set
// changed since the last build. Rebuilds are serialized: concurrent gossip
// merges could otherwise store an older member set's ring after a newer
// one's version, and the node would keep the stale ring until the next
// membership change.
func (n *Node) rebuildRing() {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	v := n.mem.Version()
	if n.ring.Load() != nil && n.ringVersion.Load() == v {
		return
	}
	ring := BuildRing(n.mem.MemberIDs(), n.cfg.VNodes)
	n.ring.Store(ring)
	n.ringVersion.Store(v)
	n.log.LogAttrs(context.Background(), slog.LevelInfo, "cluster ring rebuilt",
		slog.Int("members", ring.Len()), slog.Uint64("memberVersion", v))
}

// Run gossips on the heartbeat interval until ctx is done. Seeds are
// contacted on the first round.
func (n *Node) Run(ctx context.Context) error {
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	n.Tick(ctx)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			n.Tick(ctx)
		}
	}
}

// Tick runs one gossip round: exchange documents with every known peer (and,
// until peers are discovered, the configured seeds), refresh peer states and
// metrics, and rebuild the ring if the member set grew. Exported so tests
// and drills can drive rounds deterministically without the timer.
func (n *Node) Tick(ctx context.Context) {
	n.rounds.Add(1)
	type target struct{ id, url string } // id "" = seed (identity unknown yet)
	var targets []target
	seen := map[string]bool{n.cfg.SelfURL: true}
	for _, p := range n.mem.Peers() {
		if p.URL != "" && !seen[p.URL] {
			seen[p.URL] = true
			targets = append(targets, target{id: p.ID, url: p.URL})
		}
	}
	for _, s := range n.cfg.Seeds {
		if s != "" && !seen[s] {
			seen[s] = true
			targets = append(targets, target{url: s})
		}
	}
	doc := n.HealthDoc()
	var wg sync.WaitGroup
	for _, tg := range targets {
		wg.Add(1)
		go func(tg target) {
			defer wg.Done()
			start := time.Now()
			reply, err := n.gossipOnce(ctx, tg.url, doc)
			if err != nil {
				n.log.LogAttrs(ctx, slog.LevelDebug, "gossip failed",
					slog.String("peer", tg.url), slog.String("error", err.Error()))
				return
			}
			n.observeHeartbeat(reply.Self.ID, time.Since(start))
			n.Merge(reply)
		}(tg)
	}
	wg.Wait()
	n.syncPeerGauges()
}

// gossipOnce POSTs this node's document to one peer and decodes the reply.
// With tracing on, the exchange carries a fresh traceparent and the sender
// records one gossip hop span.
func (n *Node) gossipOnce(ctx context.Context, baseURL string, doc Doc) (Doc, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return Doc{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+PathGossip, bytes.NewReader(body))
	if err != nil {
		return Doc{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderNode, n.cfg.SelfID)
	var tp obs.Traceparent
	traced := n.tracing()
	if traced {
		tp = obs.NewTraceparent()
		req.Header.Set(obs.TraceparentHeader, tp.String())
	}
	start := time.Now()
	resp, err := n.hc.Do(req)
	if err != nil {
		if traced {
			n.recordHop(tp, obs.HopGossip, n.peerIDByURL(baseURL), PathGossip, 0, start)
		}
		return Doc{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var reply Doc
	decodeErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&reply)
	if traced {
		peer := reply.Self.ID
		if peer == "" {
			peer = n.peerIDByURL(baseURL)
		}
		n.recordHop(tp, obs.HopGossip, peer, PathGossip, resp.StatusCode, start)
	}
	if resp.StatusCode != http.StatusOK {
		return Doc{}, fmt.Errorf("cluster: gossip %s: status %d", baseURL, resp.StatusCode)
	}
	if decodeErr != nil {
		return Doc{}, fmt.Errorf("cluster: gossip %s: %w", baseURL, decodeErr)
	}
	return reply, nil
}

// maybePull schedules an async anti-entropy sync from a peer whose catalog
// is ahead of ours: strictly higher mutation epoch with a different content
// hash. Syncs are single-flight and delta-first (digest diff, then
// per-entry fetches), falling back to the full snapshot stream when the
// divergence is too broad. Equal epochs with diverging hashes are a
// conflict gossip cannot resolve; they are logged and left to operators
// (the next mutation's epoch bump breaks the tie).
func (n *Node) maybePull(remote NodeInfo) {
	selfEpoch := n.epoch.Load()
	if remote.Epoch < selfEpoch || remote.URL == "" {
		return
	}
	hash := n.CatalogHash()
	if remote.CatalogHash == "" || remote.CatalogHash == hash {
		return
	}
	if remote.Epoch == selfEpoch {
		n.log.LogAttrs(context.Background(), slog.LevelWarn, "catalog divergence at equal epoch",
			slog.String("peer", remote.ID), slog.Uint64("epoch", selfEpoch),
			slog.String("selfHash", hash), slog.String("peerHash", remote.CatalogHash))
		return
	}
	if !n.pulling.CompareAndSwap(false, true) {
		return
	}
	url := remote.URL
	go func() {
		defer n.pulling.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), snapshotPullTimeout)
		defer cancel()
		if err := n.Sync(ctx, url); err != nil {
			n.pullsFail.Add(1)
			n.log.LogAttrs(ctx, slog.LevelWarn, "anti-entropy sync failed",
				slog.String("peer", url), slog.String("error", err.Error()))
		}
	}()
}

// doHop performs one anti-entropy request against a peer: it stamps the
// sender id and (with tracing on) a fresh child traceparent, times the round
// trip into the per-peer/per-route latency histogram, and records a hop span
// into the trace ring. kind doubles as the histogram's route label value.
func (n *Node) doHop(req *http.Request, kind, baseURL string) (*http.Response, error) {
	peer := n.peerIDByURL(baseURL)
	var tp obs.Traceparent
	traced := n.tracing()
	if traced {
		tp = obs.NewTraceparent()
		req.Header.Set(obs.TraceparentHeader, tp.String())
	}
	start := time.Now()
	resp, err := n.hc.Do(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	n.observeAntiEntropy(peer, kind, time.Since(start))
	if traced {
		n.recordHop(tp, kind, peer, req.URL.Path, status, start)
	}
	return resp, err
}

// errDeltaFallback marks a delta sync that declined in favor of the full
// snapshot stream (too much divergence, or an empty local catalog where a
// bulk adopt is strictly cheaper than per-entry fetches).
var errDeltaFallback = errors.New("cluster: delta sync fell back to full snapshot")

// Sync converges this node with a peer, delta-first: diff digests and fetch
// only divergent entries; any delta failure — threshold exceeded, digest
// route unavailable, a fetch error mid-stream — falls back to the full
// snapshot pull, which remains the correctness backstop.
func (n *Node) Sync(ctx context.Context, baseURL string) error {
	err := n.PullDelta(ctx, baseURL)
	if err == nil {
		return nil
	}
	n.deltaFallback.Add(1)
	if !errors.Is(err, errDeltaFallback) {
		n.log.LogAttrs(ctx, slog.LevelDebug, "delta sync failed, pulling full snapshot",
			slog.String("peer", baseURL), slog.String("error", err.Error()))
	}
	return n.PullSnapshot(ctx, baseURL)
}

// PullDelta runs one delta anti-entropy round against a peer: fetch its
// digest table, diff against ours (skipping stamp-tracked keys, which
// converge through replicated mutations and hinted handoff), fetch each
// divergent entry as a verified trailered stream, and fold them in as one
// merge generation. The wire cost is O(changed entries) plus one digest
// document, against O(catalog) for a full pull. Returns errDeltaFallback
// (wrapped) when a full pull is the better plan.
func (n *Node) PullDelta(ctx context.Context, baseURL string) error {
	remote, err := n.fetchDigest(ctx, baseURL)
	if err != nil {
		return err
	}
	local, _, err := n.entryDigests()
	if err != nil {
		return err
	}
	var diff []string
	for k, de := range remote.Entries {
		if n.HasKeyStamp(k) {
			continue
		}
		if crc, ok := local[k]; ok && crc == de.CRC {
			continue
		}
		diff = append(diff, k)
	}
	if len(diff) == 0 {
		// All divergence (if any) is stamp-tracked: nothing bulk anti-entropy
		// may touch. Fold the epoch so the pull trigger quiesces.
		n.ObserveEpoch(remote.Epoch)
		n.deltaOK.Add(1)
		return nil
	}
	if len(local) == 0 {
		return fmt.Errorf("%w: local catalog is empty, bulk adopt is cheaper", errDeltaFallback)
	}
	if max := n.cfg.DeltaThreshold * float64(len(remote.Entries)); float64(len(diff)) > max {
		return fmt.Errorf("%w: %d of %d entries divergent (threshold %.0f%%)",
			errDeltaFallback, len(diff), len(remote.Entries), n.cfg.DeltaThreshold*100)
	}
	sort.Strings(diff)
	streams := make([][]byte, 0, len(diff))
	for _, k := range diff {
		data, err := n.fetchEntry(ctx, baseURL, k)
		if err != nil {
			return err
		}
		streams = append(streams, data)
	}
	gen, err := n.store.MergeEntries(streams, n.HasKeyStamp)
	if err != nil {
		return fmt.Errorf("cluster: delta merge from %s: %w", baseURL, err)
	}
	n.ObserveEpoch(remote.Epoch)
	n.deltaOK.Add(1)
	n.log.LogAttrs(ctx, slog.LevelInfo, "catalog delta pulled",
		slog.String("peer", baseURL), slog.Int("entries", len(diff)),
		slog.Uint64("generation", gen), slog.Uint64("epoch", remote.Epoch))
	return nil
}

// fetchDigest GETs a peer's digest document, bounded by the snapshot size
// cap; the bytes count against the delta wire-cost counter.
func (n *Node) fetchDigest(ctx context.Context, baseURL string) (DigestDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+PathDigest, nil)
	if err != nil {
		return DigestDoc{}, err
	}
	req.Header.Set(HeaderNode, n.cfg.SelfID)
	resp, err := n.doHop(req, obs.HopDigest, baseURL)
	if err != nil {
		return DigestDoc{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return DigestDoc{}, fmt.Errorf("cluster: digest %s: status %d", baseURL, resp.StatusCode)
	}
	data, err := n.readBounded(resp.Body, "digest")
	if err != nil {
		return DigestDoc{}, fmt.Errorf("cluster: digest %s: %w", baseURL, err)
	}
	n.bytesDelta.Add(uint64(len(data)))
	var doc DigestDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return DigestDoc{}, fmt.Errorf("cluster: digest %s: %w", baseURL, err)
	}
	return doc, nil
}

// fetchEntry GETs one entry's trailered stream from a peer, bounded by the
// snapshot size cap; the bytes count against the delta wire-cost counter.
func (n *Node) fetchEntry(ctx context.Context, baseURL, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+PathEntryPrefix+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderNode, n.cfg.SelfID)
	resp, err := n.doHop(req, obs.HopEntry, baseURL)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: entry %s from %s: status %d", key, baseURL, resp.StatusCode)
	}
	data, err := n.readBounded(resp.Body, "entry")
	if err != nil {
		return nil, fmt.Errorf("cluster: entry %s from %s: %w", key, baseURL, err)
	}
	n.bytesDelta.Add(uint64(len(data)))
	return data, nil
}

// readBounded reads a response body under the configured size cap, counting
// oversize rejections so a peer serving runaway streams is visible.
func (n *Node) readBounded(r io.Reader, what string) ([]byte, error) {
	max := n.cfg.SnapshotMaxBytes
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > max {
		n.oversize.Add(1)
		return nil, fmt.Errorf("%s stream exceeds the %d-byte cap", what, max)
	}
	return data, nil
}

// PullSnapshot streams the checksummed catalog snapshot from a peer and
// merges it in: the trailer is verified, the payload re-validated,
// estimators recompiled through the catalog's core.Compile ingress path,
// and the result persisted through the store's (possibly fault-injected)
// filesystem. The merge is a union guarded by the per-key stamp table —
// keys this node has applied tracked mutations for are left alone (hinted
// handoff converges them precisely), and local-only keys are never deleted
// by a pull; an empty booting node degenerates to a full adopt. The peer's
// epoch header folds into ours on success.
func (n *Node) PullSnapshot(ctx context.Context, baseURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+PathSnapshot, nil)
	if err != nil {
		return err
	}
	req.Header.Set(HeaderNode, n.cfg.SelfID)
	resp, err := n.doHop(req, obs.HopSnapshot, baseURL)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: snapshot %s: status %d", baseURL, resp.StatusCode)
	}
	data, err := n.readBounded(resp.Body, "snapshot")
	if err != nil {
		return fmt.Errorf("cluster: snapshot %s: %w", baseURL, err)
	}
	n.bytesFull.Add(uint64(len(data)))
	gen, err := n.store.MergeSnapshot(data, n.HasKeyStamp)
	if err != nil {
		return fmt.Errorf("cluster: snapshot %s: %w", baseURL, err)
	}
	var remoteEpoch uint64
	if raw := resp.Header.Get(HeaderEpoch); raw != "" {
		fmt.Sscanf(raw, "%d", &remoteEpoch)
	}
	n.ObserveEpoch(remoteEpoch)
	n.pullsOK.Add(1)
	n.log.LogAttrs(ctx, slog.LevelInfo, "catalog snapshot pulled",
		slog.String("peer", baseURL), slog.Uint64("generation", gen),
		slog.Uint64("epoch", remoteEpoch), slog.Int("indexes", n.store.Len()))
	return nil
}

// Pulls reports completed and failed snapshot pulls (tests, metrics).
func (n *Node) Pulls() (ok, failed uint64) {
	return n.pullsOK.Load(), n.pullsFail.Load()
}

// DeltaPulls reports completed delta syncs and delta syncs that fell back
// to a full snapshot pull.
func (n *Node) DeltaPulls() (ok, fallback uint64) {
	return n.deltaOK.Load(), n.deltaFallback.Load()
}

// AntiEntropyBytes reports the bytes received over the wire by sync mode —
// the honest cost ledger the delta-sync gates (bench, the wire-cost test)
// read.
func (n *Node) AntiEntropyBytes() (delta, full uint64) {
	return n.bytesDelta.Load(), n.bytesFull.Load()
}

// OversizeRejections reports anti-entropy responses rejected by the
// configured size cap.
func (n *Node) OversizeRejections() uint64 { return n.oversize.Load() }

// Rounds reports the number of gossip rounds run.
func (n *Node) Rounds() uint64 { return n.rounds.Load() }

// SetTraceRing attaches the trace ring that receives hop records for this
// node's outbound cluster traffic. The service layer passes its request
// ring, so request and hop records stitch into one timeline.
func (n *Node) SetTraceRing(r *obs.TraceRing) { n.traceRing.Store(r) }

// TraceRing returns the attached hop-trace ring (nil when tracing is off).
func (n *Node) TraceRing() *obs.TraceRing { return n.traceRing.Load() }

// tracing reports whether hop tracing is enabled, so disabled nodes skip
// the traceparent render entirely.
func (n *Node) tracing() bool { return n.traceRing.Load() != nil }

// peerIDByURL resolves a peer's node ID from its base URL, falling back to
// the URL itself for peers not yet in the member table (seed contacts).
func (n *Node) peerIDByURL(baseURL string) string {
	for _, p := range n.mem.Peers() {
		if p.URL == baseURL {
			return p.ID
		}
	}
	return baseURL
}

// recordHop writes one completed cluster-internal send into the attached
// trace ring (no-op when tracing is off).
func (n *Node) recordHop(tp obs.Traceparent, kind, peer, route string, status int, start time.Time) {
	n.traceRing.Load().RecordHop(tp, obs.SpanID{}, kind, peer, route, status, start, time.Since(start))
}

// RegisterMetrics wires the node's cluster metrics into an obs registry:
// cluster-level gauges/counters now, and per-peer epfis_cluster_peer_up
// gauges plus heartbeat-latency histograms as peers are discovered.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	n.obsMu.Lock()
	n.reg = reg
	n.obsMu.Unlock()
	reg.GaugeFunc("epfis_cluster_epoch", "Cluster mutation epoch (Lamport).",
		func() float64 { return float64(n.epoch.Load()) })
	reg.GaugeFunc("epfis_cluster_members", "Members on the hash ring, self included.",
		func() float64 { return float64(n.ring.Load().Len()) })
	reg.GaugeFunc("epfis_cluster_replicas", "Replica-set size R.",
		func() float64 { return float64(n.cfg.Replicas) })
	reg.CounterFunc("epfis_cluster_gossip_rounds_total", "Gossip rounds run.",
		func() float64 { return float64(n.rounds.Load()) })
	reg.CounterFunc("epfis_cluster_snapshot_pulls_total", "Catalog snapshots pulled from peers.",
		func() float64 { return float64(n.pullsOK.Load()) })
	reg.CounterFunc("epfis_cluster_snapshot_pull_failures_total", "Snapshot pulls that failed.",
		func() float64 { return float64(n.pullsFail.Load()) })
	reg.CounterFunc("epfis_cluster_delta_pulls_total", "Delta anti-entropy syncs completed.",
		func() float64 { return float64(n.deltaOK.Load()) })
	reg.CounterFunc("epfis_cluster_delta_fallbacks_total", "Delta syncs that fell back to a full snapshot pull.",
		func() float64 { return float64(n.deltaFallback.Load()) })
	reg.CounterFunc("epfis_cluster_antientropy_bytes_total", "Anti-entropy bytes received by sync mode.",
		func() float64 { return float64(n.bytesDelta.Load()) }, obs.Label{Name: "mode", Value: "delta"})
	reg.CounterFunc("epfis_cluster_antientropy_bytes_total", "Anti-entropy bytes received by sync mode.",
		func() float64 { return float64(n.bytesFull.Load()) }, obs.Label{Name: "mode", Value: "full"})
	reg.CounterFunc("epfis_cluster_antientropy_oversize_total", "Anti-entropy responses rejected by the size cap.",
		func() float64 { return float64(n.oversize.Load()) })
	n.syncPeerGauges()
}

// heartbeatBuckets spans 100µs … ~1.6s: loopback heartbeats are sub-ms, WAN
// peers and injected slow-IO land in the tail.
var heartbeatBuckets = obs.ExpBuckets(1e-4, 2, 14)

// observeHeartbeat records one successful heartbeat round trip to a peer.
func (n *Node) observeHeartbeat(peerID string, d time.Duration) {
	if peerID == "" {
		return
	}
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	if n.reg == nil {
		return
	}
	h, ok := n.hbLat[peerID]
	if !ok {
		h = n.reg.Histogram("epfis_cluster_heartbeat_seconds",
			"Gossip round-trip latency by peer.", heartbeatBuckets,
			obs.Label{Name: "peer", Value: peerID})
		n.hbLat[peerID] = h
	}
	h.Observe(d.Seconds())
}

// observeAntiEntropy records one anti-entropy round trip (digest, entry, or
// snapshot pull) into the per-peer, per-route latency histogram, registering
// the series lazily as peers and routes are first used.
func (n *Node) observeAntiEntropy(peerID, route string, d time.Duration) {
	if peerID == "" {
		return
	}
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	if n.reg == nil {
		return
	}
	key := peerID + "\x00" + route
	h, ok := n.aeLat[key]
	if !ok {
		h = n.reg.Histogram("epfis_cluster_antientropy_seconds",
			"Anti-entropy round-trip latency by peer and route.", heartbeatBuckets,
			obs.Label{Name: "peer", Value: peerID},
			obs.Label{Name: "route", Value: route})
		n.aeLat[key] = h
	}
	h.Observe(d.Seconds())
}

// syncPeerGauges refreshes the per-peer up gauges (1 alive, 0 otherwise),
// registering gauges for newly discovered peers.
func (n *Node) syncPeerGauges() {
	peers := n.mem.Peers()
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	if n.reg == nil {
		return
	}
	for _, p := range peers {
		g, ok := n.peerUp[p.ID]
		if !ok {
			g = n.reg.Gauge("epfis_cluster_peer_up",
				"1 while the peer is alive (heard from within the suspect window).",
				obs.Label{Name: "peer", Value: p.ID})
			n.peerUp[p.ID] = g
		}
		if p.State == StateAlive {
			g.Set(1)
		} else {
			g.Set(0)
		}
	}
}
