package obs

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the W3C trace-context header name (HTTP headers are
// case-insensitive; Go canonicalizes this to "Traceparent").
const TraceparentHeader = "Traceparent"

// TraceID is the 16-byte W3C trace id.
type TraceID [16]byte

// SpanID is the 8-byte W3C parent/span id.
type SpanID [8]byte

// IsZero reports whether the id is all zeros (invalid per the spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is all zeros (invalid per the spec).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return string(appendHex(make([]byte, 0, 32), t[:])) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return string(appendHex(make([]byte, 0, 16), s[:])) }

// Traceparent is one parsed traceparent header: version 00 with a trace id,
// span id, and flags byte.
type Traceparent struct {
	Trace TraceID
	Span  SpanID
	Flags byte
}

// traceparentLen is len("00-" + 32 hex + "-" + 16 hex + "-" + 2 hex).
const traceparentLen = 55

// AppendText appends the canonical "00-<trace>-<span>-<flags>" form.
func (tp Traceparent) AppendText(dst []byte) []byte {
	dst = append(dst, '0', '0', '-')
	dst = appendHex(dst, tp.Trace[:])
	dst = append(dst, '-')
	dst = appendHex(dst, tp.Span[:])
	dst = append(dst, '-')
	return append(dst, hexDigits[tp.Flags>>4], hexDigits[tp.Flags&0xF])
}

// String renders the canonical header value (allocates; hot paths append
// into pooled buffers instead).
func (tp Traceparent) String() string {
	return string(tp.AppendText(make([]byte, 0, traceparentLen)))
}

// TraceString renders just the 32-hex-digit trace id.
func (tp Traceparent) TraceString() string {
	return string(appendHex(make([]byte, 0, 32), tp.Trace[:]))
}

const hexDigits = "0123456789abcdef"

func appendHex(dst, src []byte) []byte {
	for _, b := range src {
		dst = append(dst, hexDigits[b>>4], hexDigits[b&0xF])
	}
	return dst
}

// ParseTraceparent parses a traceparent header value. It accepts version 00
// (and, per the spec's forward-compatibility rule, any other known-length
// non-ff version), lowercase hex only, and rejects all-zero trace or span
// ids. ok is false for an absent or malformed header — the caller falls back
// to a locally generated identity.
func ParseTraceparent(v string) (tp Traceparent, ok bool) {
	if len(v) < traceparentLen {
		return tp, false
	}
	if len(v) > traceparentLen && v[traceparentLen] != '-' {
		return tp, false // longer forms only valid for future versions with a dash
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return tp, false
	}
	ver, ok1 := unhexByte(v[0], v[1])
	if !ok1 || ver == 0xff {
		return tp, false
	}
	if ver == 0 && len(v) != traceparentLen {
		return tp, false
	}
	for i := 0; i < 16; i++ {
		b, ok2 := unhexByte(v[3+2*i], v[4+2*i])
		if !ok2 {
			return tp, false
		}
		tp.Trace[i] = b
	}
	for i := 0; i < 8; i++ {
		b, ok2 := unhexByte(v[36+2*i], v[37+2*i])
		if !ok2 {
			return tp, false
		}
		tp.Span[i] = b
	}
	flags, ok3 := unhexByte(v[53], v[54])
	if !ok3 {
		return tp, false
	}
	tp.Flags = flags
	if tp.Trace.IsZero() || tp.Span.IsZero() {
		return tp, false
	}
	return tp, true
}

// unhexByte decodes two lowercase hex digits (the spec forbids uppercase).
func unhexByte(hi, lo byte) (byte, bool) {
	h, ok1 := unhexDigit(hi)
	l, ok2 := unhexDigit(lo)
	return h<<4 | l, ok1 && ok2
}

func unhexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// rngState drives the allocation-free id generator: an atomic splitmix64
// stream seeded once per process from wall time and pid. Trace ids need to
// be unique, not unguessable.
var rngState atomic.Uint64

func init() {
	rngState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ 0x9E3779B97F4A7C15)
}

func randUint64() uint64 {
	x := rngState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// NewTraceparent returns a sampled identity with fresh random ids.
func NewTraceparent() Traceparent {
	tp := Traceparent{Flags: 0x01}
	for tp.Trace.IsZero() {
		putUint64(tp.Trace[0:8], randUint64())
		putUint64(tp.Trace[8:16], randUint64())
	}
	for tp.Span.IsZero() {
		putUint64(tp.Span[:], randUint64())
	}
	return tp
}

// NewSpanID returns a fresh random span id.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		putUint64(s[:], randUint64())
	}
	return s
}

// Child derives the traceparent for an outbound hop: same trace and flags,
// fresh span id. The receiver's instrument middleware re-parents again, so
// every network edge gets its own span.
func (tp Traceparent) Child() Traceparent {
	tp.Span = NewSpanID()
	return tp
}

// ParseTraceID parses a 32-digit lowercase-hex trace id, rejecting the
// all-zero id the spec reserves as invalid.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	for i := 0; i < 16; i++ {
		b, ok := unhexByte(s[2*i], s[2*i+1])
		if !ok {
			return id, false
		}
		id[i] = b
	}
	if id.IsZero() {
		return id, false
	}
	return id, true
}

func putUint64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (56 - 8*i))
	}
}

// ctxKey keys the traceparent stored in a context.Context.
type ctxKey struct{}

// ContextWithTraceparent returns ctx carrying tp, for propagation through
// the retrying client.
func ContextWithTraceparent(ctx context.Context, tp Traceparent) context.Context {
	return context.WithValue(ctx, ctxKey{}, tp)
}

// TraceparentFrom extracts a traceparent stored by ContextWithTraceparent.
func TraceparentFrom(ctx context.Context) (Traceparent, bool) {
	tp, ok := ctx.Value(ctxKey{}).(Traceparent)
	return tp, ok
}

// Span stage names recorded by the service handlers.
const (
	StageParse    = "parse"
	StageCache    = "cache"
	StageEstimate = "estimate"
	StageEncode   = "encode"
)

// Hop kinds recorded for cluster-internal sends. Each inter-node request
// stamps a child traceparent and the sender records one hop span, so a
// distributed trace shows every network edge it crossed.
const (
	HopReplicate = "replicate" // quorum replication fan-out
	HopGossip    = "gossip"    // membership heartbeat exchange
	HopDigest    = "digest"    // anti-entropy digest pull
	HopEntry     = "entry"     // anti-entropy entries pull
	HopForward   = "forward"   // ingest batch forwarded to a ring owner
)

// MaxSpans bounds the per-request span buffer; stages past the limit are
// dropped rather than allocated.
const MaxSpans = 8

// Span is one recorded stage: offsets are relative to the request start.
type Span struct {
	Name  string
	Start time.Duration
	End   time.Duration
}

// TraceBuf is a pooled per-request span recorder. All methods are safe on a
// nil receiver, so handlers record stages unconditionally and tracing is
// disabled simply by not attaching a buffer.
type TraceBuf struct {
	TP        Traceparent
	Parent    SpanID // caller-supplied span id, zero when locally generated
	HasParent bool
	Route     string

	start time.Time
	spans [MaxSpans]Span
	n     int
	open  bool
}

var traceBufPool = sync.Pool{New: func() any { return new(TraceBuf) }}

// GetTraceBuf leases a reset buffer from the pool.
func GetTraceBuf(tp Traceparent, route string, start time.Time) *TraceBuf {
	tb := traceBufPool.Get().(*TraceBuf)
	tb.TP = tp
	tb.Parent = SpanID{}
	tb.HasParent = false
	tb.Route = route
	tb.start = start
	tb.n = 0
	tb.open = false
	return tb
}

// PutTraceBuf returns a buffer to the pool.
func PutTraceBuf(tb *TraceBuf) {
	if tb != nil {
		traceBufPool.Put(tb)
	}
}

// Mark closes the currently open span (if any) and opens a new one named
// name, both at time.Now. One monotonic clock read per stage boundary.
func (t *TraceBuf) Mark(name string) {
	if t == nil {
		return
	}
	now := time.Since(t.start)
	if t.open {
		t.spans[t.n-1].End = now
		t.open = false
	}
	if t.n == MaxSpans {
		return
	}
	t.spans[t.n] = Span{Name: name, Start: now}
	t.n++
	t.open = true
}

// CloseSpan ends the open span, if any.
func (t *TraceBuf) CloseSpan() {
	if t == nil || !t.open {
		return
	}
	t.spans[t.n-1].End = time.Since(t.start)
	t.open = false
}

// finish closes any open span at the request's total duration.
func (t *TraceBuf) finish(total time.Duration) {
	if t.open {
		t.spans[t.n-1].End = total
		t.open = false
	}
}

// TraceRecord is one completed request in the ring: a fixed-size value (the
// strings are route and stage constants), copied in without allocation.
// Hop records (written by RecordHop for cluster-internal sends) additionally
// carry the hop kind and peer node id; both are empty for request records.
type TraceRecord struct {
	TP        Traceparent
	Parent    SpanID
	HasParent bool
	Route     string
	Kind      string // hop kind (HopReplicate, ...); "" for served requests
	Peer      string // peer node id the hop targeted; "" for served requests
	Status    int
	Wall      time.Time // wall-clock request start
	Duration  time.Duration
	Slow      bool
	Spans     [MaxSpans]Span
	NSpans    int
}

// TraceRing keeps the last N completed traces. Writers take one short mutex
// to copy a fixed-size record — "lock-light": the critical section is a
// struct copy, with no allocation and no I/O.
type TraceRing struct {
	mu    sync.Mutex
	recs  []TraceRecord
	next  uint64 // total records ever written; next slot is next % len
	total atomic.Uint64
	slow  atomic.Uint64
}

// NewTraceRing builds a ring holding n completed traces (minimum 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{recs: make([]TraceRecord, n)}
}

// Record copies one completed request into the ring. wall is the wall-clock
// start time (the buffer's internal base is monotonic-only).
func (r *TraceRing) Record(tb *TraceBuf, status int, wall time.Time, total time.Duration, slow bool) {
	if r == nil || tb == nil {
		return
	}
	tb.finish(total)
	r.total.Add(1)
	if slow {
		r.slow.Add(1)
	}
	r.mu.Lock()
	rec := &r.recs[r.next%uint64(len(r.recs))]
	r.next++
	rec.TP = tb.TP
	rec.Parent = tb.Parent
	rec.HasParent = tb.HasParent
	rec.Route = tb.Route
	rec.Kind = ""
	rec.Peer = ""
	rec.Status = status
	rec.Wall = wall
	rec.Duration = total
	rec.Slow = slow
	rec.Spans = tb.spans
	rec.NSpans = tb.n
	r.mu.Unlock()
}

// RecordHop copies one completed cluster-internal send into the ring: the
// sender's view of a network edge, recorded under the hop's own (child)
// traceparent with parent set to the span it was derived from. kind and peer
// should be reused constants or long-lived ids — the record stores the
// strings as-is. Safe on a nil ring (tracing disabled).
func (r *TraceRing) RecordHop(tp Traceparent, parent SpanID, kind, peer, route string, status int, wall time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.total.Add(1)
	r.mu.Lock()
	rec := &r.recs[r.next%uint64(len(r.recs))]
	r.next++
	*rec = TraceRecord{
		TP:        tp,
		Parent:    parent,
		HasParent: !parent.IsZero(),
		Route:     route,
		Kind:      kind,
		Peer:      peer,
		Status:    status,
		Wall:      wall,
		Duration:  d,
	}
	rec.Spans[0] = Span{Name: kind, Start: 0, End: d}
	rec.NSpans = 1
	r.mu.Unlock()
}

// FindByTrace returns the ring's records for one trace id, newest first —
// the per-node input to cross-node trace stitching. Safe on a nil ring.
func (r *TraceRing) FindByTrace(id TraceID) []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	size := uint64(len(r.recs))
	count := n
	if count > size {
		count = size
	}
	var out []TraceRecord
	for i := uint64(1); i <= count; i++ {
		rec := r.recs[(n-i)%size]
		if rec.TP.Trace == id {
			out = append(out, rec)
		}
	}
	return out
}

// Snapshot copies the ring's contents, newest first (allocates; the debug
// endpoint is a cold path).
func (r *TraceRing) Snapshot() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	size := uint64(len(r.recs))
	count := n
	if count > size {
		count = size
	}
	out := make([]TraceRecord, 0, count)
	for i := uint64(1); i <= count; i++ {
		out = append(out, r.recs[(n-i)%size])
	}
	return out
}

// Totals reports how many traces completed and how many were slow.
func (r *TraceRing) Totals() (total, slow uint64) {
	return r.total.Load(), r.slow.Load()
}

// Len reports the ring capacity.
func (r *TraceRing) Len() int { return len(r.recs) }
