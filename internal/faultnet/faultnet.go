// Package faultnet is the network sibling of faultfs: a failpoint-style
// fault injector for HTTP traffic between cluster nodes. Production code
// talks plain net/http; tests (and the EPFIS_NET_FAULTS env knob on
// cmd/epfis-serve) interpose an Injector as the node's http.RoundTripper
// and/or net.Listener so specific requests at specific points are dropped,
// reset, slowed, or answered with a truncated body — deterministically, so
// a partition drill that passed once passes every time.
//
// The fault model is a list of rules. Each rule matches an operation class
// (request, response, accept), a peer substring (the target host:port for
// outbound traffic, the remote address for accepts), and a route substring
// (the URL path, outbound only), and fires on the Nth matching call
// (counted per rule) for Count consecutive matches:
//
//	inj := faultnet.NewInjector(nil, 1)
//	inj.Add(faultnet.Rule{Op: faultnet.OpRequest, Route: "/v1/cluster/gossip", Nth: 3, Mode: faultnet.ModeDrop})
//
// drops the third outbound gossip exchange. Every operation is traced so
// tests can assert ordering (for example that a pull follows the gossip
// exchange that triggered it).
//
// Partitions are modelled on top of the same injector: Block(peer) makes
// every outbound request to a matching host fail with ErrPartitioned until
// Heal. Because each node owns its outbound transport, a full partition is
// symmetric blocks on both sides and an asymmetric partition (A can reach
// B, B cannot reach A) is a block on one side only.
package faultnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error returned by injected faults (possibly wrapped).
var ErrInjected = errors.New("faultnet: injected fault")

// ErrPartitioned is the error outbound requests fail with while the target
// peer is blocked by Block/Partition. It wraps ErrInjected.
var ErrPartitioned = fmt.Errorf("%w: partitioned", ErrInjected)

// Op identifies one class of network operation the injector can fault.
type Op string

// Operation classes. OpAny matches every class in a Rule.
const (
	OpAny Op = "*"
	// OpRequest is an outbound HTTP request, faulted before it is sent:
	// the peer never sees it.
	OpRequest Op = "request"
	// OpResponse is an outbound HTTP request faulted after the peer
	// answered: the peer did the work, the caller never learns (drop,
	// reset) or learns only part of it (truncate).
	OpResponse Op = "response"
	// OpAccept is an inbound connection at a wrapped listener.
	OpAccept Op = "accept"
)

// Mode is what an armed rule does when it fires.
type Mode string

const (
	// ModeDrop makes the operation vanish: outbound requests fail with
	// ErrInjected, accepted connections are closed before the server
	// sees them.
	ModeDrop Mode = "drop"
	// ModeReset fails the operation with a connection-reset error — the
	// TCP-level RST a crashed peer produces.
	ModeReset Mode = "reset"
	// ModeSlow delays the operation by Delay (± seeded jitter), then lets
	// it proceed — a congested link rather than a cut one.
	ModeSlow Mode = "slow"
	// ModeTruncate applies to responses: the body is cut roughly in half
	// and then errors, so the caller sees an unexpected EOF mid-stream.
	ModeTruncate Mode = "truncate"
)

// Rule arms one fault. Zero Peer/Route match everything; OpAny (or "")
// matches every operation class.
type Rule struct {
	// Op is the operation class to match.
	Op Op
	// Peer matches operations whose peer address (target host:port for
	// outbound, remote address for accepts) contains this substring.
	Peer string
	// Route matches outbound operations whose URL path contains this
	// substring. Ignored for OpAccept.
	Route string
	// Nth fires the rule on the Nth matching operation (1-based; 0 = 1).
	Nth int
	// Count is how many consecutive matching operations fire once armed
	// (0 = 1; negative = every matching operation from the Nth on).
	Count int
	// Mode selects the fault behaviour; default ModeDrop.
	Mode Mode
	// Delay is the added latency for ModeSlow (default 10ms).
	Delay time.Duration
}

// ruleState pairs a rule with its per-rule match counter.
type ruleState struct {
	Rule
	matched int // matching operations seen so far
	fired   int // faults delivered
}

// Injector decides the fate of each network operation: it implements
// http.RoundTripper over an inner transport and wraps net.Listeners. It
// also records an operation trace ("op peer route") so tests can assert
// ordering invariants. Safe for concurrent use.
type Injector struct {
	inner http.RoundTripper

	mu        sync.Mutex
	rules     []*ruleState
	blocked   []string // peer substrings cut off by Block/Partition
	rng       *rand.Rand
	trace     []string
	injected  int
	maxTraced int
}

// NewInjector builds an injector over inner (nil = http.DefaultTransport).
// The seed makes ModeSlow jitter (and therefore the whole injector, given
// the same operation sequence) deterministic.
func NewInjector(inner http.RoundTripper, seed int64) *Injector {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Injector{
		inner:     inner,
		rng:       rand.New(rand.NewSource(seed)),
		maxTraced: 4096,
	}
}

// Add arms a rule. Rules are evaluated in insertion order; the first one
// that fires wins for a given operation.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r.Op == "" {
		r.Op = OpAny
	}
	if r.Nth <= 0 {
		r.Nth = 1
	}
	if r.Count == 0 {
		r.Count = 1
	}
	if r.Mode == "" {
		r.Mode = ModeDrop
	}
	if r.Mode == ModeSlow && r.Delay <= 0 {
		r.Delay = 10 * time.Millisecond
	}
	in.rules = append(in.rules, &ruleState{Rule: r})
}

// Reset disarms every rule and clears counters; blocks and trace are kept.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Block cuts off every outbound request whose target host matches the peer
// substring: they fail immediately with ErrPartitioned. Blocking is
// directional — it stops traffic this injector originates, nothing else —
// so a full partition blocks on both sides and an asymmetric one on one.
func (in *Injector) Block(peer string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, b := range in.blocked {
		if b == peer {
			return
		}
	}
	in.blocked = append(in.blocked, peer)
}

// Unblock removes one peer substring from the block list.
func (in *Injector) Unblock(peer string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, b := range in.blocked {
		if b == peer {
			in.blocked = append(in.blocked[:i], in.blocked[i+1:]...)
			return
		}
	}
}

// Heal clears every block (rules stay armed; use Reset for those).
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blocked = nil
}

// Injected reports how many faults (including partition drops) have been
// delivered.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// Trace returns a copy of the recorded "op peer route" entries, oldest
// first (bounded; oldest entries are dropped past the cap). Faulted
// operations are suffixed with " !fault".
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.trace...)
}

// check records the operation and decides its fate.
func (in *Injector) check(op Op, peer, route string) (delay time.Duration, mode Mode, err error) {
	in.mu.Lock()
	// Partition blocks trump rules: a cut link fails everything.
	if op == OpRequest {
		for _, b := range in.blocked {
			if b != "" && strings.Contains(peer, b) {
				in.injected++
				in.record(op, peer, route, true)
				in.mu.Unlock()
				return 0, ModeDrop, fmt.Errorf("%w: %s -> %s", ErrPartitioned, op, peer)
			}
		}
	}
	var fired *ruleState
	for _, rs := range in.rules {
		if rs.Op != OpAny && rs.Op != op {
			continue
		}
		if rs.Peer != "" && rs.Peer != "*" && !strings.Contains(peer, rs.Peer) {
			continue
		}
		if rs.Route != "" && rs.Route != "*" && !strings.Contains(route, rs.Route) {
			continue
		}
		rs.matched++
		if rs.matched < rs.Nth {
			continue
		}
		if rs.Count > 0 && rs.fired >= rs.Count {
			continue
		}
		if fired == nil { // first firing rule wins; later rules still count the match
			rs.fired++
			fired = rs
		}
	}
	if fired != nil {
		in.injected++
	}
	in.record(op, peer, route, fired != nil)
	if fired == nil {
		in.mu.Unlock()
		return 0, "", nil
	}
	switch fired.Mode {
	case ModeSlow:
		// Jitter in [Delay/2, Delay], drawn from the seeded source.
		d := fired.Delay/2 + time.Duration(in.rng.Int63n(int64(fired.Delay/2)+1))
		in.mu.Unlock()
		return d, ModeSlow, nil
	case ModeTruncate:
		in.mu.Unlock()
		return 0, ModeTruncate, nil
	case ModeReset:
		in.mu.Unlock()
		return 0, ModeReset, fmt.Errorf("%w: %s %s%s: connection reset by peer", ErrInjected, op, peer, route)
	default:
		in.mu.Unlock()
		return 0, ModeDrop, fmt.Errorf("%w: %s %s%s", ErrInjected, op, peer, route)
	}
}

// record appends one trace entry; callers hold in.mu.
func (in *Injector) record(op Op, peer, route string, fault bool) {
	entry := string(op) + " " + peer + route
	if fault {
		entry += " !fault"
	}
	if len(in.trace) >= in.maxTraced {
		in.trace = in.trace[1:]
	}
	in.trace = append(in.trace, entry)
}

// RoundTrip implements http.RoundTripper: OpRequest faults fire before the
// request reaches the wire, OpResponse faults after the peer answered.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	peer := req.URL.Host
	route := req.URL.Path
	delay, _, err := in.check(OpRequest, peer, route)
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if err != nil {
		return nil, err
	}
	resp, rerr := in.inner.RoundTrip(req)
	if rerr != nil {
		return nil, rerr
	}
	delay, mode, err := in.check(OpResponse, peer, route)
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			resp.Body.Close()
			return nil, req.Context().Err()
		}
	}
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	if mode == ModeTruncate {
		resp.Body = truncateBody(resp.Body, resp.ContentLength)
	}
	return resp, nil
}

// truncateBody wraps a response body so roughly half of it reads before an
// unexpected EOF — a connection cut mid-stream.
func truncateBody(body io.ReadCloser, contentLength int64) io.ReadCloser {
	limit := int64(64)
	if contentLength > 1 {
		limit = contentLength / 2
	}
	return &truncatedBody{inner: body, remain: limit}
}

type truncatedBody struct {
	inner  io.ReadCloser
	remain int64
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.remain <= 0 {
		return 0, fmt.Errorf("%w: truncated body: %w", ErrInjected, io.ErrUnexpectedEOF)
	}
	if int64(len(p)) > t.remain {
		p = p[:t.remain]
	}
	n, err := t.inner.Read(p)
	t.remain -= int64(n)
	if err == nil && t.remain <= 0 {
		err = fmt.Errorf("%w: truncated body: %w", ErrInjected, io.ErrUnexpectedEOF)
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.inner.Close() }

// WrapListener interposes the injector on an accept path: OpAccept drop and
// reset faults close the connection before the server sees it, slow faults
// delay the hand-off. A nil injector returns ln unchanged.
func WrapListener(ln net.Listener, in *Injector) net.Listener {
	if in == nil {
		return ln
	}
	return &faultListener{Listener: ln, in: in}
}

type faultListener struct {
	net.Listener
	in *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		delay, _, ferr := l.in.check(OpAccept, conn.RemoteAddr().String(), "")
		if delay > 0 {
			time.Sleep(delay)
		}
		if ferr != nil {
			conn.Close() // the client sees a reset/refused connection
			continue
		}
		return conn, nil
	}
}

// Client is a convenience: an *http.Client using the injector as its
// transport with the given timeout.
func (in *Injector) Client(timeout time.Duration) *http.Client {
	return &http.Client{Transport: in, Timeout: timeout}
}

// ParseRules parses the compact spec used by the EPFIS_NET_FAULTS knob:
// comma-separated rules of the form
//
//	op:peer:route:nth:mode[:count]
//
// where op is one of the Op constants (or * for any), peer and route are
// substring matches (* or empty for any), nth is the 1-based trigger
// point, mode is drop, reset, truncate, or slow[=DURATION], and count is
// the number of firings (-1 = forever). Examples:
//
//	request:9001:/v1/indexes:1:drop        drop the first PUT replicated to :9001
//	response:*:/v1/cluster/entries:1:truncate  cut the first entries stream short
//	*:node-b::1:slow=50ms:3                slow three exchanges with node-b by ~50ms
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		parts := strings.Split(raw, ":")
		if len(parts) < 5 || len(parts) > 6 {
			return nil, fmt.Errorf("faultnet: rule %q: want op:peer:route:nth:mode[:count]", raw)
		}
		r := Rule{Op: Op(parts[0]), Peer: parts[1], Route: parts[2]}
		if r.Peer == "*" {
			r.Peer = ""
		}
		if r.Route == "*" {
			r.Route = ""
		}
		switch r.Op {
		case OpAny, OpRequest, OpResponse, OpAccept:
		default:
			return nil, fmt.Errorf("faultnet: rule %q: unknown op %q", raw, parts[0])
		}
		n, err := strconv.Atoi(parts[3])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("faultnet: rule %q: bad nth %q", raw, parts[3])
		}
		r.Nth = n
		mode := parts[4]
		if d, ok := strings.CutPrefix(mode, string(ModeSlow)+"="); ok {
			dur, err := time.ParseDuration(d)
			if err != nil {
				return nil, fmt.Errorf("faultnet: rule %q: bad delay %q", raw, d)
			}
			r.Mode, r.Delay = ModeSlow, dur
		} else {
			switch Mode(mode) {
			case ModeDrop, ModeReset, ModeSlow, ModeTruncate:
				r.Mode = Mode(mode)
			default:
				return nil, fmt.Errorf("faultnet: rule %q: unknown mode %q", raw, mode)
			}
		}
		if len(parts) == 6 {
			c, err := strconv.Atoi(parts[5])
			if err != nil || c == 0 {
				return nil, fmt.Errorf("faultnet: rule %q: bad count %q", raw, parts[5])
			}
			r.Count = c
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("faultnet: empty fault spec")
	}
	return rules, nil
}
