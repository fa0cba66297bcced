package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/obs"
)

// Cluster route paths and headers, shared by the node, the service layer
// that mounts the handlers, and the cluster-aware client.
const (
	PathHealth = "/v1/cluster/health"
	PathGossip = "/v1/cluster/gossip"
	// PathDigest serves the digest (every entry's and tombstone's version)
	// a pulling peer diffs against its own.
	PathDigest = "/v1/cluster/digest"
	// PathEntries answers a POSTed entries request with the named keys'
	// entries and tombstones, each with its stamp.
	PathEntries = "/v1/cluster/entries"
	// PathPush takes a POSTed entries stream, the one PathEntries serves,
	// and merges it as a pull does: how a write's coordinator replicates it.
	PathPush = "/v1/cluster/push"

	// HeaderNode carries the sending/serving node ID.
	HeaderNode = "X-Epfis-Node"
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

// pullTimeout bounds one anti-entropy pull.
const pullTimeout = 30 * time.Second

// ErrClockExhausted reports that the mutation epoch has reached its maximum,
// so this node cannot stamp a write after every stamp it has seen.
var ErrClockExhausted = errors.New("cluster: mutation clock exhausted")

// DefaultSnapshotMaxBytes caps anti-entropy response bodies (digest,
// entries) when Config.SnapshotMaxBytes is zero. A corrupt or hostile peer
// can then cost the puller at most this much memory, never an OOM.
const DefaultSnapshotMaxBytes = 64 << 20

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

// DecodeDoc decodes a gossip document from a peer, refusing one whose
// sender reports an epoch at or above catalog.EpochBound: the receiver
// folds that epoch into its clock, and no peer may exhaust it.
func DecodeDoc(r io.Reader) (Doc, error) {
	var d Doc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return Doc{}, err
	}
	if err := checkEpoch(d.Self.Epoch); err != nil {
		return Doc{}, err
	}
	return d, nil
}

// checkEpoch refuses a peer's epoch at or above catalog.EpochBound.
func checkEpoch(e uint64) error {
	if e >= catalog.EpochBound {
		return fmt.Errorf("cluster: epoch %d is at or above the peer bound 2^63", e)
	}
	return nil
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
	// HTTPClient performs gossip and anti-entropy transfers; nil uses a
	// private client with sane timeouts.
	HTTPClient *http.Client
	// Store is the node's catalog store; anti-entropy exports from and
	// merges into it.
	Store *catalog.Store
	// Log receives membership and sync events; nil discards.
	Log *slog.Logger
	// SnapshotMaxBytes caps anti-entropy response bodies (0 =
	// DefaultSnapshotMaxBytes): the digest, and each entries response, so a
	// pull fetches what it takes in as few requests as the cap allows.
	// Oversize responses fail the pull and count in
	// epfis_cluster_antientropy_oversize_total.
	SnapshotMaxBytes int64
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

	// The catalog's versions and their hash, cached per generation: the
	// digest served to peers, the local side of every diff, and the hash
	// gossip carries all come from one store snapshot.
	versionsMu  sync.Mutex
	versionsGen uint64
	versions    map[string]catalog.Version
	hash        string

	// Gossip-triggered pulls run one at a time in the background; pullDone
	// is closed when the running one returns (nil when none runs).
	pullMu   sync.Mutex
	pullDone chan struct{}

	// Anti-entropy accounting: completed and failed pulls, pulls that
	// committed a merge, bytes received, and responses rejected by the size
	// cap.
	pullsOK    atomic.Uint64
	pullsFail  atomic.Uint64
	merges     atomic.Uint64
	bytes      atomic.Uint64
	oversize   atomic.Uint64
	rounds     atomic.Uint64
	gossipFail atomic.Uint64 // exchanges that failed or were refused
	skipped    atomic.Uint64 // pushes that took nothing

	// lag holds, per peer, how many keys its last digest showed behind
	// this node's versions.
	lagMu sync.Mutex
	lag   map[string]int

	onMerge atomic.Pointer[func(gen uint64, keys []string)]

	// Per-peer instruments, registered lazily as peers are discovered.
	obsMu   sync.Mutex
	reg     *obs.Registry
	peerUp  map[string]*obs.Gauge
	peerLag map[string]bool // lag gauges registered
	hbLat   map[string]*obs.Histogram
	aeLat   map[string]*obs.Histogram // anti-entropy latency, keyed peer\x00route

	// traceRing, when attached, receives one hop record per cluster-internal
	// send (gossip, digest and entries pulls) so distributed traces show the
	// anti-entropy edges too. Nil = tracing disabled.
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
		cfg:     cfg,
		store:   cfg.Store,
		mem:     NewMembership(cfg.SelfID, cfg.SuspectAfter, cfg.DeadAfter, cfg.Clock),
		log:     cfg.Log,
		lag:     map[string]int{},
		peerUp:  map[string]*obs.Gauge{},
		peerLag: map[string]bool{},
		hbLat:   map[string]*obs.Histogram{},
		aeLat:   map[string]*obs.Histogram{},
	}
	if n.cfg.SnapshotMaxBytes <= 0 {
		n.cfg.SnapshotMaxBytes = DefaultSnapshotMaxBytes
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
	// The clock starts at the highest stamp the store holds, so the first
	// local mutation after a restart is stamped above everything this node
	// ever applied; gossip then folds in the cluster's epochs.
	for _, st := range cfg.Store.Snapshot().Stamps() {
		n.ObserveEpoch(st.Epoch)
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
// mutation and returns the new value. The clock never wraps: once it holds
// the largest epoch, no stamp orders after every one this node has seen,
// and BumpEpoch fails with ErrClockExhausted instead.
func (n *Node) BumpEpoch() (uint64, error) {
	for {
		cur := n.epoch.Load()
		if cur == math.MaxUint64 {
			return 0, ErrClockExhausted
		}
		if n.epoch.CompareAndSwap(cur, cur+1) {
			return cur + 1, nil
		}
	}
}

// ObserveEpoch folds a remote epoch in (Lamport max), so merged versions
// and gossiped clocks keep epochs comparable cluster-wide.
func (n *Node) ObserveEpoch(e uint64) {
	for {
		cur := n.epoch.Load()
		if e <= cur || n.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Stamp is the total order on same-key mutations, kept by the catalog
// store beside the entries it orders (see catalog.Stamp).
type Stamp = catalog.Stamp

// KeyStamp reports the last mutation stamp the store holds for a key, a
// delete's tombstone included (the zero Stamp = no tracked mutation).
func (n *Node) KeyStamp(key string) Stamp { return n.store.Snapshot().Stamp(key) }

// catalogVersions returns the store's versions and their hash, cached per
// generation. The returned map is shared — callers must treat it as
// read-only.
func (n *Node) catalogVersions() (map[string]catalog.Version, string, error) {
	gen := n.store.Generation()
	n.versionsMu.Lock()
	defer n.versionsMu.Unlock()
	if n.versions != nil && n.versionsGen == gen {
		return n.versions, n.hash, nil
	}
	v, vgen, err := n.store.Versions()
	if err != nil {
		return nil, "", err
	}
	n.versionsGen, n.versions, n.hash = vgen, v, hashVersions(v)
	return v, n.hash, nil
}

// hashVersions is the catalog identity gossip carries: the CRC32-C of every
// key's version in key order, stamps and tombstones included, so two nodes
// report the same hash exactly when a pull between them would take nothing.
func hashVersions(v map[string]catalog.Version) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		x := v[k]
		b = fmt.Appendf(b, "%s\x00%d\x00%s\x00%08x\x00%t\n", k, x.Stamp.Epoch, x.Stamp.Origin, x.CRC, x.Tombstone)
	}
	return fmt.Sprintf("crc32c:%08x", crc32.Checksum(b, crcTable))
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CatalogHash returns the hash of the catalog's versions (see
// hashVersions), cached per generation.
func (n *Node) CatalogHash() string {
	_, h, err := n.catalogVersions()
	if err != nil {
		return ""
	}
	return h
}

// digestEntry is one entry's record in the digest document: the CRC32-C of
// its JSON plus the stamp of its last mutation, omitted when it has none.
type digestEntry struct {
	CRC   uint32 `json:"crc"`
	Stamp *Stamp `json:"stamp,omitempty"`
}

// digestDoc is served at GET /v1/cluster/digest: every entry's and every
// tombstone's version, read from one snapshot, with the serving node's
// epoch. Stamps travel as "epoch/origin".
type digestDoc struct {
	Node       string                 `json:"node"`
	Epoch      uint64                 `json:"epoch"`
	Entries    map[string]digestEntry `json:"entries"`
	Tombstones map[string]Stamp       `json:"tombstones,omitempty"`
}

// digest assembles the document served at GET /v1/cluster/digest.
func (n *Node) digest() (digestDoc, error) {
	versions, _, err := n.catalogVersions()
	if err != nil {
		return digestDoc{}, err
	}
	doc := digestDoc{
		Node:    n.cfg.SelfID,
		Epoch:   n.epoch.Load(),
		Entries: make(map[string]digestEntry, len(versions)),
	}
	for k, v := range versions {
		if v.Tombstone {
			if doc.Tombstones == nil {
				doc.Tombstones = map[string]Stamp{}
			}
			doc.Tombstones[k] = v.Stamp
			continue
		}
		de := digestEntry{CRC: v.CRC}
		if v.Stamp != (Stamp{}) {
			st := v.Stamp
			de.Stamp = &st
		}
		doc.Entries[k] = de
	}
	return doc, nil
}

// versions decodes the document back into per-key versions.
func (d digestDoc) versions() map[string]catalog.Version {
	out := make(map[string]catalog.Version, len(d.Entries)+len(d.Tombstones))
	for k, de := range d.Entries {
		v := catalog.Version{CRC: de.CRC}
		if de.Stamp != nil {
			v.Stamp = *de.Stamp
		}
		out[k] = v
	}
	for k, st := range d.Tombstones {
		out[k] = catalog.Version{Stamp: st, Tombstone: true}
	}
	return out
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
// gossip handler echoes back. Merge also feeds anti-entropy: a sender whose
// catalog hash differs from ours triggers an async pull from it, so both
// ends of an exchange pull.
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
	// Lamport receive rule: fold the sender's epoch so a restarted node's
	// next local mutation stamps an epoch above everything the cluster has
	// seen — otherwise its writes would be dropped as stale by peers'
	// per-key stamp gates.
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

// Run gossips on the heartbeat interval until ctx is done, then waits for
// the pull its gossip last triggered, so no anti-entropy request of this
// node outlives it. Seeds are contacted on the first round.
func (n *Node) Run(ctx context.Context) error {
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	defer func() {
		n.pullMu.Lock()
		done := n.pullDone
		n.pullMu.Unlock()
		if done != nil {
			<-done
		}
	}()
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
				n.gossipFail.Add(1)
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
	reply, decodeErr := DecodeDoc(io.LimitReader(resp.Body, 1<<20))
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

// maybePull schedules an async pull from a peer whose catalog hash differs
// from ours, at any epoch. Pulls are single-flight: a trigger that finds
// one running is dropped, and the next gossip round fires again if the
// hashes still differ.
func (n *Node) maybePull(remote NodeInfo) {
	if remote.URL == "" || remote.CatalogHash == "" || remote.CatalogHash == n.CatalogHash() {
		return
	}
	n.pullMu.Lock()
	if n.pullDone != nil {
		n.pullMu.Unlock()
		return
	}
	done := make(chan struct{})
	n.pullDone = done
	n.pullMu.Unlock()
	url := remote.URL
	go func() {
		defer func() {
			n.pullMu.Lock()
			n.pullDone = nil
			n.pullMu.Unlock()
			close(done)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), pullTimeout)
		defer cancel()
		if err := n.Sync(ctx, url); err != nil {
			n.log.LogAttrs(ctx, slog.LevelWarn, "anti-entropy pull failed",
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

// Sync pulls from a peer, the way replicas converge: fetch its digest,
// take every key whose version there orders after ours — a tombstone or a
// stamp fold straight from the digest, an entry by fetching it — and merge
// the lot as one commit through merge, the tail a push runs too. The
// entries come in as few requests as the response cap allows, so a fresh
// node pays a handful of round trips for a whole catalog.
func (n *Node) Sync(ctx context.Context, baseURL string) error {
	err := n.sync(ctx, baseURL)
	if err != nil {
		n.pullsFail.Add(1)
		return err
	}
	n.pullsOK.Add(1)
	return nil
}

func (n *Node) sync(ctx context.Context, baseURL string) error {
	remote, err := n.fetchDigest(ctx, baseURL)
	if err != nil {
		return err
	}
	local, _, err := n.catalogVersions()
	if err != nil {
		return err
	}
	theirs := remote.versions()
	lag := 0
	for k, v := range local {
		if v.After(theirs[k]) {
			lag++
		}
	}
	n.lagMu.Lock()
	n.lag[remote.Node] = lag
	n.lagMu.Unlock()

	in := map[string]catalog.Incoming{}
	var fetch []string
	for k, v := range theirs {
		l, held := local[k]
		switch {
		case !v.After(l):
		case v.Tombstone, held && !l.Tombstone && l.CRC == v.CRC:
			in[k] = catalog.Incoming{Version: v} // a tombstone, or a stamp fold
		default:
			fetch = append(fetch, k)
		}
	}
	sort.Strings(fetch)
	for len(fetch) > 0 {
		got, covered, err := n.fetchEntries(ctx, baseURL, fetch)
		if err != nil {
			return err
		}
		for k, v := range got {
			in[k] = v
		}
		fetch = fetch[covered:]
	}
	n.ObserveEpoch(remote.Epoch)
	gen, taken, err := n.merge(in)
	if err != nil {
		return fmt.Errorf("cluster: merge from %s: %w", baseURL, err)
	}
	if len(taken) == 0 {
		return nil
	}
	n.merges.Add(1)
	n.log.LogAttrs(ctx, slog.LevelInfo, "catalog pulled",
		slog.String("peer", baseURL), slog.Int("keys", len(taken)),
		slog.Uint64("generation", gen), slog.Uint64("epoch", remote.Epoch))
	return nil
}

// merge is the one way a peer's versions enter this node, pulled or pushed:
// every stamp is folded into the clock first, so a local write ordered
// after the merge is stamped above it; Store.Merge then takes each key iff
// the peer's version orders after the held one, as one commit; and the
// merge hook gets the keys taken.
func (n *Node) merge(in map[string]catalog.Incoming) (uint64, []string, error) {
	for _, v := range in {
		n.ObserveEpoch(v.Stamp.Epoch)
	}
	gen, taken, err := n.store.Merge(in)
	if err == nil && len(taken) > 0 {
		if fn := n.onMerge.Load(); fn != nil {
			(*fn)(gen, taken)
		}
	}
	return gen, taken, err
}

// SetOnMerge registers fn to run after every merge, pulled or pushed, that
// took keys, with its generation and the keys taken: the service runs the
// post-commit step a local write runs.
func (n *Node) SetOnMerge(fn func(gen uint64, keys []string)) { n.onMerge.Store(&fn) }

// pushAck is the push route's answer: the generation after the merge, and
// Skipped when it took no key because this node already held an equal or
// later version of each.
type pushAck struct {
	Generation uint64 `json:"generation"`
	Skipped    bool   `json:"skipped,omitempty"`
}

// HandlePush serves POST PathPush, how a write's coordinator replicates it:
// the body is an ExportEntries stream, read under the snapshot size cap and
// merged exactly as a pull merges what it fetched. A stream taken or not
// newer answers 200; one that does not decode answers 400. Pushed bytes do
// not count as anti-entropy bytes. It reports false only when the store
// failed the merge (503), so the caller's circuit breaker can count it.
func (n *Node) HandlePush(w http.ResponseWriter, r *http.Request) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, n.cfg.SnapshotMaxBytes))
	if err != nil {
		http.Error(w, "read push: "+err.Error(), http.StatusBadRequest)
		return true
	}
	in, _, err := catalog.DecodeEntries(data)
	if err != nil {
		http.Error(w, "decode push: "+err.Error(), http.StatusBadRequest)
		return true
	}
	gen, taken, err := n.merge(in)
	if err != nil {
		http.Error(w, "merge push: "+err.Error(), http.StatusServiceUnavailable)
		return false
	}
	if len(taken) == 0 {
		n.skipped.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderNode, n.cfg.SelfID)
	json.NewEncoder(w).Encode(pushAck{Generation: gen, Skipped: len(taken) == 0})
	return true
}

// fetchDigest GETs a peer's digest document, bounded by the snapshot size
// cap; the bytes count against the delta wire-cost counter.
func (n *Node) fetchDigest(ctx context.Context, baseURL string) (digestDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+PathDigest, nil)
	if err != nil {
		return digestDoc{}, err
	}
	req.Header.Set(HeaderNode, n.cfg.SelfID)
	resp, err := n.doHop(req, obs.HopDigest, baseURL)
	if err != nil {
		return digestDoc{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return digestDoc{}, fmt.Errorf("cluster: digest %s: status %d", baseURL, resp.StatusCode)
	}
	data, err := n.readBounded(resp.Body, "digest")
	if err != nil {
		return digestDoc{}, fmt.Errorf("cluster: digest %s: %w", baseURL, err)
	}
	n.bytes.Add(uint64(len(data)))
	doc, err := decodeDigest(data)
	if err != nil {
		return digestDoc{}, fmt.Errorf("cluster: digest %s: %w", baseURL, err)
	}
	return doc, nil
}

// decodeDigest decodes a peer's digest document. Its stamps are refused at
// or above catalog.EpochBound as they parse (Stamp.UnmarshalText), its
// epoch here.
func decodeDigest(data []byte) (digestDoc, error) {
	var doc digestDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return digestDoc{}, err
	}
	if err := checkEpoch(doc.Epoch); err != nil {
		return digestDoc{}, err
	}
	return doc, nil
}

// entriesRequest is the body POSTed to PathEntries: the keys wanted, and
// the response size the asker accepts.
type entriesRequest struct {
	Keys     []string `json:"keys"`
	MaxBytes int64    `json:"maxBytes"`
}

// HandleDigest serves GET PathDigest: the node's digest document.
func (n *Node) HandleDigest(w http.ResponseWriter, r *http.Request) {
	doc, err := n.digest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderNode, n.cfg.SelfID)
	json.NewEncoder(w).Encode(doc)
}

// HandleEntries serves POST PathEntries: the asked keys' entries and
// tombstones, each with its stamp, read from one snapshot, as a trailered
// stream no larger than the asker accepts or this node's own cap (one key
// always goes, so every response makes progress).
func (n *Node) HandleEntries(w http.ResponseWriter, r *http.Request) {
	var req entriesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, n.cfg.SnapshotMaxBytes)).Decode(&req); err != nil {
		http.Error(w, "decode entries request: "+err.Error(), http.StatusBadRequest)
		return
	}
	limit := n.cfg.SnapshotMaxBytes
	if req.MaxBytes > 0 {
		limit = min(limit, req.MaxBytes)
	}
	data, _, err := n.store.ExportEntries(req.Keys, int(limit))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderNode, n.cfg.SelfID)
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// fetchEntries POSTs one entries request for keys, bounded by the size cap,
// and returns the verified stream's contents and how many of keys it
// answers (at least one); the bytes count against the wire-cost counter.
func (n *Node) fetchEntries(ctx context.Context, baseURL string, keys []string) (map[string]catalog.Incoming, int, error) {
	body, err := json.Marshal(entriesRequest{Keys: keys, MaxBytes: n.cfg.SnapshotMaxBytes})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+PathEntries, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderNode, n.cfg.SelfID)
	resp, err := n.doHop(req, obs.HopEntry, baseURL)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("cluster: entries from %s: status %d", baseURL, resp.StatusCode)
	}
	data, err := n.readBounded(resp.Body, "entries")
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: entries from %s: %w", baseURL, err)
	}
	n.bytes.Add(uint64(len(data)))
	in, covered, err := catalog.DecodeEntries(data)
	if err == nil && (covered < 1 || covered > len(keys)) {
		err = fmt.Errorf("stream answers %d of %d keys", covered, len(keys))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: entries from %s: %w", baseURL, err)
	}
	return in, covered, nil
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

// Pulls reports completed and failed pulls (tests, metrics).
func (n *Node) Pulls() (ok, failed uint64) {
	return n.pullsOK.Load(), n.pullsFail.Load()
}

// AntiEntropyBytes reports the bytes pulls received over the wire — the
// cost ledger the wire-cost test reads.
func (n *Node) AntiEntropyBytes() uint64 { return n.bytes.Load() }

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
// cluster-level gauges/counters now, and per-peer epfis_cluster_peer_up and
// epfis_cluster_peer_lag_keys gauges plus heartbeat-latency histograms as
// peers are discovered.
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
	reg.CounterFunc("epfis_cluster_gossip_failures_total", "Gossip exchanges that failed or whose reply was refused.",
		func() float64 { return float64(n.gossipFail.Load()) })
	reg.CounterFunc("epfis_cluster_pulls_total", "Anti-entropy pulls completed.",
		func() float64 { return float64(n.pullsOK.Load()) })
	reg.CounterFunc("epfis_cluster_pull_failures_total", "Anti-entropy pulls that failed.",
		func() float64 { return float64(n.pullsFail.Load()) })
	reg.CounterFunc("epfis_cluster_merges_total", "Anti-entropy pulls that committed a merge.",
		func() float64 { return float64(n.merges.Load()) })
	reg.CounterFunc("epfis_cluster_antientropy_bytes_total", "Anti-entropy bytes received (digests and entries).",
		func() float64 { return float64(n.bytes.Load()) })
	reg.CounterFunc("epfis_cluster_antientropy_oversize_total", "Anti-entropy responses rejected by the size cap.",
		func() float64 { return float64(n.oversize.Load()) })
	reg.CounterFunc("epfis_cluster_stale_mutations_total",
		"Pushes skipped because the node already held an equal or later version of every key.",
		func() float64 { return float64(n.skipped.Load()) })
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

// observeAntiEntropy records one anti-entropy round trip (digest or
// entries) into the per-peer, per-route latency histogram, registering
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
// registering up and lag gauges for newly discovered peers.
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
		if !n.peerLag[p.ID] {
			n.peerLag[p.ID] = true
			id := p.ID
			n.reg.GaugeFunc("epfis_cluster_peer_lag_keys",
				"Keys on which the peer's last digest ordered before this node's versions; 0 once the gossiped catalog hashes agree.",
				func() float64 { return float64(n.lagOf(id)) },
				obs.Label{Name: "peer", Value: id})
		}
	}
}

// lagOf reports how many keys the peer lags this node by: the keys on
// which its last fetched digest ordered before this node's versions, or 0
// once the catalog hash it last gossiped equals this node's.
func (n *Node) lagOf(id string) int {
	if p, ok := n.mem.Peer(id); ok && p.CatalogHash != "" && p.CatalogHash == n.CatalogHash() {
		return 0
	}
	n.lagMu.Lock()
	defer n.lagMu.Unlock()
	return n.lag[id]
}
