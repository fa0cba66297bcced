package service

// ClusterClient is the cluster-aware extension of the retrying Client. Every
// node answers estimates from its own replica, so the client needs no ring:
// it learns the members from any seed's /v1/cluster/health and starts each
// key at the member the key's hash picks, keeping one node's memo cache warm
// for the key. It fails over to the other members in order, hedges to the
// next after HedgeAfter (estimates are idempotent), and skips a member whose
// breaker is open. A batch goes whole to one node, chosen by its first
// item's key. A fence refusal (ErrStaleReplica) fails over like any 503 but
// does not strike the breaker: the node is healthy, only behind on one key.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/resilience"
)

// DefaultHedgeAfter is the time the current member gets before a hedge is
// sent to the next one.
const DefaultHedgeAfter = 50 * time.Millisecond

// ClusterClientConfig configures NewClusterClient. Seeds is required.
type ClusterClientConfig struct {
	// Seeds are node base URLs; the member list is learned from the first
	// one that answers /v1/cluster/health and refreshed on demand after
	// that.
	Seeds []string
	// HTTPClient overrides http.DefaultClient for every node.
	HTTPClient *http.Client
	// Retry tunes each per-node request's retry policy. Note hedging already
	// provides cross-node redundancy; the zero value here keeps the
	// resilience defaults within one node.
	Retry resilience.RetryPolicy
	// HedgeAfter is the wait before hedging to the next member.
	// 0 = DefaultHedgeAfter; negative disables hedging (failover only).
	HedgeAfter time.Duration
	// BreakerFailures / BreakerCooldown tune the per-node breakers
	// (0 = resilience defaults).
	BreakerFailures int
	BreakerCooldown time.Duration
}

// clusterNode is one node the client knows: its address, a plain Client
// bound to it, and the breaker guarding it. Immutable once built.
type clusterNode struct {
	id      string
	url     string
	client  *Client
	breaker *resilience.Breaker
}

// ClusterClient spreads estimates across a cluster. Construct with
// NewClusterClient; safe for concurrent use.
type ClusterClient struct {
	cfg ClusterClientConfig
	hc  *http.Client

	mu      sync.RWMutex
	members []*clusterNode // sorted by node ID; nil before the first refresh
}

// NewClusterClient builds a client over the seed list. Members are fetched
// lazily on first use (or eagerly via Refresh).
func NewClusterClient(cfg ClusterClientConfig) (*ClusterClient, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("service: ClusterClientConfig.Seeds is required")
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &ClusterClient{cfg: cfg, hc: hc}, nil
}

// Refresh fetches the cluster document from the first answering node —
// known members first (fresher than a static seed list), then the seeds —
// and rebuilds the member list.
func (c *ClusterClient) Refresh(ctx context.Context) error {
	c.mu.RLock()
	urls := make([]string, 0, len(c.members)+len(c.cfg.Seeds))
	for _, n := range c.members {
		urls = append(urls, n.url)
	}
	c.mu.RUnlock()
	err := errors.New("no cluster seed answered")
	for _, base := range append(urls, c.cfg.Seeds...) {
		var cl *Client
		var doc cluster.Doc
		if cl, err = NewClient(ClientConfig{BaseURL: base, HTTPClient: c.hc,
			Retry: resilience.RetryPolicy{MaxAttempts: 1}}); err == nil {
			if err = cl.do(ctx, http.MethodGet, cluster.PathHealth, nil, &doc); err == nil {
				return c.adopt(doc)
			}
		}
	}
	return fmt.Errorf("service: cluster refresh: %w", err)
}

// adopt installs a cluster document: the member list becomes the document's
// members with a URL, sorted by ID. A member already known keeps its
// breaker, so its failure history survives a refresh.
func (c *ClusterClient) adopt(doc cluster.Doc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	known := map[string]*clusterNode{}
	for _, n := range c.members {
		known[n.id] = n
	}
	var members []*clusterNode
	for _, m := range doc.Members {
		if m.ID == "" || m.URL == "" {
			continue
		}
		n := known[m.ID]
		if n == nil || n.url != m.URL {
			cl, err := NewClient(ClientConfig{BaseURL: m.URL, HTTPClient: c.hc, Retry: c.cfg.Retry})
			if err != nil {
				return err
			}
			br := resilience.NewBreaker(resilience.BreakerConfig{
				Failures: c.cfg.BreakerFailures,
				Cooldown: c.cfg.BreakerCooldown,
			})
			if n != nil {
				br = n.breaker
			}
			n = &clusterNode{id: m.ID, url: m.URL, client: cl, breaker: br}
		}
		members = append(members, n)
	}
	if len(members) == 0 {
		return errors.New("service: cluster document carries no members")
	}
	sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	c.members = members
	return nil
}

// order returns every member, starting at the one key hashes to and going
// on in member order. It fetches the member list on first use.
func (c *ClusterClient) order(ctx context.Context, key string) ([]*clusterNode, error) {
	c.mu.RLock()
	members := c.members
	c.mu.RUnlock()
	if members == nil {
		if err := c.Refresh(ctx); err != nil {
			return nil, err
		}
		return c.order(ctx, key) // adopt never installs an empty list
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	start := int(h.Sum64() % uint64(len(members)))
	out := make([]*clusterNode, 0, len(members))
	out = append(out, members[start:]...)
	return append(out, members[:start]...), nil
}

// isNodeFailure classifies an estimate error for the per-node breaker:
// transport trouble and 5xx/429 strike the node; client-side errors (bad
// input, unknown index) and fence refusals do not.
func isNodeFailure(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		if strings.HasPrefix(se.Message, ErrStaleReplica.Error()) {
			return false
		}
		return se.Code >= 500 || se.Code == http.StatusTooManyRequests
	}
	return !errors.Is(err, context.Canceled)
}

// Estimate fetches one estimate, starting at the member the key hashes to
// and hedging and failing over to the others.
func (c *ClusterClient) Estimate(ctx context.Context, req EstimateRequest) (EstimateResponse, error) {
	return race(ctx, c, req.Table+"."+req.Column, func(ctx context.Context, cl *Client) (EstimateResponse, error) {
		return cl.Estimate(ctx, req)
	})
}

// EstimateBatch sends the whole batch to the member its first item's key
// hashes to, hedging and failing over to the others as a unit.
func (c *ClusterClient) EstimateBatch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	key := ""
	if len(req.Requests) > 0 {
		key = req.Requests[0].Table + "." + req.Requests[0].Column
	}
	return race(ctx, c, key, func(ctx context.Context, cl *Client) (BatchResponse, error) {
		return cl.EstimateBatch(ctx, req)
	})
}

// race runs call against the members in key order: the next member is
// launched when the hedge timer fires or a launched call fails, and the
// first success wins. Each call passes its node's breaker; an open breaker
// fails it at once.
func race[T any](ctx context.Context, c *ClusterClient, key string, call func(context.Context, *Client) (T, error)) (T, error) {
	var zero T
	nodes, err := c.order(ctx, key)
	if err != nil {
		return zero, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // winner decided: abandon in-flight hedges
	type result struct {
		v   T
		err error
	}
	resCh := make(chan result, len(nodes))
	launched := 0
	launchNext := func() {
		if launched == len(nodes) {
			return
		}
		n := nodes[launched]
		launched++
		go func() {
			commit, _, err := n.breaker.Begin()
			if err != nil {
				resCh <- result{err: fmt.Errorf("node %s: %w", n.id, err)}
				return
			}
			v, err := call(ctx, n.client)
			commit(isNodeFailure(err))
			resCh <- result{v: v, err: err}
		}()
	}
	launchNext()
	var hedge <-chan time.Time
	if c.cfg.HedgeAfter > 0 && len(nodes) > 1 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var firstErr error
	for received := 0; received < launched; {
		select {
		case r := <-resCh:
			received++
			if r.err == nil {
				return r.v, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			// A definite failure frees a slot: fail over to the next node
			// immediately rather than waiting for the hedge timer.
			launchNext()
		case <-hedge:
			hedge = nil
			launchNext()
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	return zero, firstErr
}

// Health fetches the plain health document from the first member that
// answers, with the same failover and breakers as an estimate.
func (c *ClusterClient) Health(ctx context.Context) (Health, error) {
	return race(ctx, c, "", func(ctx context.Context, cl *Client) (Health, error) {
		return cl.Health(ctx)
	})
}
