package cluster

// Shared pooled HTTP transport for intra-cluster traffic.
//
// Every cluster wire path — ingest forwarding, quorum pushes, gossip, and
// anti-entropy pulls — is node-to-node traffic against a small, stable
// peer set. http.DefaultTransport (and worse, a fresh zero-Transport
// client per node) re-dials per burst and caps idle connections per host
// at 2, so a push fan-out under load pays TCP handshakes on the hot path.
// One tuned transport with deep per-host idle pools turns that into
// connection reuse: the steady-state cost of a pushed write is a write and
// a read on a kept-alive connection.

import (
	"net"
	"net/http"
	"sync"
	"time"
)

// DefaultMaxIdleConnsPerHost is the per-peer idle connection pool depth when
// Config (or the serve flag) leaves it zero. Cluster fan-out is bursty —
// one mutation touches every peer at once — so the pool must hold a burst's
// worth of connections per peer, not net/http's default of 2.
const DefaultMaxIdleConnsPerHost = 32

// NewTransport builds a tuned transport for intra-cluster traffic:
// keep-alives on, per-host idle pools sized for replication bursts, and
// dial/TLS timeouts far below the per-request timeouts so a dead peer fails
// fast instead of consuming the whole request budget.
func NewTransport(maxIdlePerHost int) *http.Transport {
	if maxIdlePerHost <= 0 {
		maxIdlePerHost = DefaultMaxIdleConnsPerHost
	}
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   maxIdlePerHost,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   2 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
	}
}

var (
	sharedOnce      sync.Once
	sharedTransport *http.Transport
)

// SharedTransport returns the process-wide pooled cluster transport, built
// on first use with default tuning. The node's gossip/snapshot client and
// the service's proxy/replication client both default to it, so every
// cluster path in one process shares one connection pool per peer.
func SharedTransport() *http.Transport {
	sharedOnce.Do(func() { sharedTransport = NewTransport(0) })
	return sharedTransport
}
