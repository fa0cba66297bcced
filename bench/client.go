package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/obs"
)

// Run phases. A client files each request under the phase current when the
// request started; the warm-up is kept only for the failure and mismatch
// counts.
const (
	phaseWarm = iota
	phaseMeasure
	phaseTraced
	phaseStop
	numPhases = phaseStop
)

// tally is one client's record of one phase.
type tally struct {
	lat        [numKinds][]int64 // ns, successful requests only
	attempted  int64
	failed     int64
	mismatches int64
	estimates  int64 // answered estimates; batch items count singly
	cached     int64 // estimates answered with "cached":true
	singles    int64 // single estimates on a clustered workload
	proxied    int64 // ... answered by a node other than the one asked
	refs       int64 // ingest references acknowledged
	respBytes  int64 // body bytes of the read requests
	reads      int64
	firstErr   string
}

func (t *tally) fail(err string) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err
	}
}

// client is one closed-loop load generator that owns one keep-alive
// connection per node it talks to.
type client struct {
	id      int
	seed    int64
	hc      *http.Client
	tr      *http.Transport
	bases   []string // base URL per node
	nodeIDs []string // cluster node IDs, nil off-cluster
	seq     []*op
	put     [][2][]byte
	ver     map[int]int // installed PUT version per index
	tracer  *tracer
	echo    bool // talking to the echo handler: time only, nothing to verify
	tallies [numPhases]tally
	buf     bytes.Buffer
	sent    uint64
}

// newClient builds a client whose transport keeps at most one connection
// per host and counts every dial.
func newClient(id int, seed int64, seq []*op, in *inputs, bases, nodeIDs []string, dials *atomic.Int64, t *tracer) *client {
	d := &net.Dialer{Timeout: 2 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{
		id: id, seed: seed, tr: tr, hc: &http.Client{Transport: tr},
		bases: bases, nodeIDs: nodeIDs, seq: seq, put: in.putBodies,
		ver: map[int]int{}, tracer: t,
	}
}

// run issues requests back to back until the phase turns to stop.
func (c *client) run(phase *atomic.Int32) {
	for i := 0; ; i++ {
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		c.do(c.seq[i%len(c.seq)], &c.tallies[ph], ph == phaseTraced)
	}
}

// traceparent derives the request's W3C trace context from the seed, the
// client and its request count. Trace IDs start with the benchmark tag
// be7c; every sixteenth request carries the sampled flag, and only those
// are traced in a traced phase.
func (c *client) traceparent() (tp string, sampled bool) {
	n := c.sent
	c.sent++
	hi := 0xbe7c<<48 | uint64(c.seed)&0xffffffffffff
	lo := uint64(c.id)<<56 | n&0xffffffffffffff
	span := uint64(derive(int64(hi^lo), 0, n)) | 1
	sampled = n%16 == 0
	flags := byte(0)
	if sampled {
		flags = 1
	}
	var t obs.Traceparent
	for i := 0; i < 8; i++ {
		t.Trace[i] = byte(hi >> (56 - 8*i))
		t.Trace[8+i] = byte(lo >> (56 - 8*i))
		t.Span[i] = byte(span >> (56 - 8*i))
	}
	t.Flags = flags
	return t.String(), sampled
}

func (c *client) do(o *op, t *tally, traced bool) {
	t.attempted++
	method, body := http.MethodGet, o.body
	switch o.kind {
	case opBatch, opIngest:
		method = http.MethodPost
	case opPut:
		method = http.MethodPut
		body = c.put[o.index][1-c.ver[o.index]]
	}
	tp, sampled := c.traceparent()
	start := time.Now()
	status, hdr, err := c.roundTrip(method, c.bases[o.node]+o.path, body, tp)
	for err == nil && o.kind == opIngest && status == http.StatusTooManyRequests {
		// Shed by the bounded ingest queue: resend the same batch ID.
		time.Sleep(5 * time.Millisecond)
		status, hdr, err = c.roundTrip(method, c.bases[o.node]+o.path, body, tp)
	}
	d := time.Since(start)
	if traced && sampled {
		c.tracer.clientSpan(tp, kindRoutes[o.kind], start, start.Add(d))
	}
	if err != nil {
		t.fail(err.Error())
		return
	}
	if status/100 != 2 {
		t.fail(fmt.Sprintf("%s %s: status %d: %.200s", method, o.path, status, c.buf.Bytes()))
		return
	}
	t.lat[o.kind] = append(t.lat[o.kind], d.Nanoseconds())
	if c.echo {
		return
	}
	switch o.kind {
	case opEstimate:
		t.reads++
		t.respBytes += int64(c.buf.Len())
		cached, ok := checkEstimate(c.buf.Bytes(), o.want[0])
		if !ok {
			t.mismatches++
			return
		}
		t.estimates++
		if cached {
			t.cached++
		}
		if c.nodeIDs != nil {
			t.singles++
			if hdr.Get(cluster.HeaderNode) != c.nodeIDs[o.node] {
				t.proxied++
			}
		}
	case opBatch:
		t.reads++
		t.respBytes += int64(c.buf.Len())
		cached, bad := checkBatch(c.buf.Bytes(), o.want)
		t.mismatches += int64(bad)
		t.estimates += int64(len(o.want) - bad)
		t.cached += int64(cached)
	case opPut:
		c.ver[o.index] = 1 - c.ver[o.index]
	case opIngest:
		t.refs += ingestBatchRefs
	}
}

// roundTrip sends one request and reads the whole response body into c.buf.
func (c *client) roundTrip(method, url string, body []byte, tp string) (int, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(obs.TraceparentHeader, tp)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, err
}

var (
	fetchesKey = []byte(`"fetches":`)
	cachedKey  = []byte(`"cached":`)
)

// nextEstimate reads the next estimate's fetches and cached fields from a
// response body and returns the bytes after them.
func nextEstimate(b []byte) (fetches float64, cached bool, rest []byte, ok bool) {
	i := bytes.Index(b, fetchesKey)
	if i < 0 {
		return 0, false, nil, false
	}
	b = b[i+len(fetchesKey):]
	j := bytes.IndexAny(b, ",}")
	if j < 0 {
		return 0, false, nil, false
	}
	f, err := strconv.ParseFloat(string(b[:j]), 64)
	if err != nil {
		return 0, false, nil, false
	}
	b = b[j:]
	k := bytes.Index(b, cachedKey)
	if k < 0 {
		return 0, false, nil, false
	}
	b = b[k+len(cachedKey):]
	return f, bytes.HasPrefix(b, []byte("true")), b, true
}

// matches is the oracle: a served estimate must equal offline Est-IO bit
// for bit under one of the installable versions.
func matches(got float64, want [2]float64) bool {
	g := math.Float64bits(got)
	return g == math.Float64bits(want[0]) || g == math.Float64bits(want[1])
}

// checkEstimate verifies a GET /v1/estimate body.
func checkEstimate(body []byte, want [2]float64) (cached, ok bool) {
	f, cached, _, ok := nextEstimate(body)
	return cached, ok && matches(f, want)
}

// checkBatch verifies a batch body item by item, in order, and reports the
// cached items and the items that are missing or wrong.
func checkBatch(body []byte, want [][2]float64) (cached, bad int) {
	rest := body
	for i, w := range want {
		f, c, r, ok := nextEstimate(rest)
		if !ok {
			return cached, len(want) - i
		}
		rest = r
		if !matches(f, w) {
			bad++
			continue
		}
		if c {
			cached++
		}
	}
	if bytes.Contains(rest, fetchesKey) {
		bad++ // more items than plans sent
	}
	return cached, bad
}
