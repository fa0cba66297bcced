// JSON codec for the two estimate hot paths. GET /v1/estimate and
// POST /v1/estimate/batch are the routes an optimizer hammers at plan-search
// QPS, so they do not go through encoding/json (whose reflection walk and
// per-request garbage dominated the serving profile). Instead:
//
//   - responses are appended into pooled []byte buffers with strconv
//     (appendEstimateResponse / the batch assembly in service.go), emitting
//     byte-for-byte the same JSON encoding/json produced — same field order,
//     same float formatting (the ES6 shortest form with json's exponent
//     cutoffs), same HTML-escaped strings, same trailing newline — proven by
//     the equivalence and golden tests in codec_test.go;
//
//   - batch request bodies are parsed by a minimal scanner specialized to the
//     BatchRequest shape (decodeBatchBody), reading into pooled scratch
//     structures: item fields become substrings of one body string, so a
//     64-item batch costs one body-string allocation instead of hundreds of
//     reflection-driven ones. It accepts exactly what the old
//     DisallowUnknownFields json.Decoder accepted and decodes the same
//     items, which FuzzDecodeBatchBody checks differentially;
//
//   - single-estimate query strings are parsed straight off URL.RawQuery
//     (parseEstimateQuery) without materializing url.Values: zero
//     allocations, plus the hardening the old parser lacked — duplicated
//     parameters are rejected, and NaN/±Inf sigma or s values are refused
//     with the core package's typed sentinels before they reach Est-IO.
//
// Cold routes (catalog management, health, metrics, error bodies) still use
// encoding/json; correctness there matters and nanoseconds do not.
package service

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"epfis/internal/core"
)

// ErrBatchTooLarge is the typed sentinel for a batch body carrying more
// requests than Config.MaxBatch allows (or exceeding the byte cap). The
// batch route maps it to 413 Request Entity Too Large, so a forwarding node
// sheds an oversized request instead of being wedged decoding it.
var ErrBatchTooLarge = errors.New("batch exceeds limit")

// estimateInput is the decoded form of one estimate request on the serving
// hot path. Unlike the wire-facing EstimateRequest it stores the sargable
// selectivity by value (absent = 1, exactly the old S-pointer semantics
// resolved at parse time), so decoding performs no pointer allocation.
type estimateInput struct {
	table  string
	column string
	b      int64
	sigma  float64
	s      float64
	detail bool
}

// estimateResult is the computed half of a response.
type estimateResult struct {
	est    core.Estimate
	gen    uint64
	cached bool
}

// --- pooled buffers ---------------------------------------------------------

// maxPooledBuf bounds what goes back into the pools, so one huge batch does
// not pin megabytes of scratch forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// batchScratch aggregates every reusable piece of batch handling: the body
// read buffer, the decoded items, the two response assembly buffers, and the
// items' shape tally.
type batchScratch struct {
	body  []byte
	reqs  []estimateInput
	items []byte
	out   []byte
	tally shapeTally
}

var batchPool = sync.Pool{New: func() any { return &batchScratch{tally: newShapeTally()} }}

func getBatchScratch() *batchScratch { return batchPool.Get().(*batchScratch) }

func putBatchScratch(s *batchScratch) {
	if cap(s.body) > maxPooledBuf || cap(s.items) > maxPooledBuf || cap(s.out) > maxPooledBuf {
		return
	}
	s.body = s.body[:0]
	s.reqs = s.reqs[:0]
	s.items = s.items[:0]
	s.out = s.out[:0]
	s.tally.reset()
	batchPool.Put(s)
}

// readBody drains the request body (already wrapped by MaxBytesReader) into
// the scratch buffer, reusing its capacity across requests.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// --- response encoding ------------------------------------------------------

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, replicating
// encoding/json's encoder with HTML escaping enabled (the writeJSON default):
// control characters, quotes, backslashes, <, >, &, U+2028/U+2029, and
// invalid UTF-8 are escaped identically.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

// appendJSONFloat appends f with encoding/json's exact formatting: shortest
// round-trip form, 'f' notation except below 1e-6 / at or above 1e21, and
// the e-09 → e-9 exponent cleanup.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func appendJSONBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendEstimateDetail appends the core.Estimate document (the detail=1
// payload), matching encoding/json's field order for the untagged struct.
func appendEstimateDetail(dst []byte, est *core.Estimate) []byte {
	dst = append(dst, `{"F":`...)
	dst = appendJSONFloat(dst, est.F)
	dst = append(dst, `,"PFB":`...)
	dst = appendJSONFloat(dst, est.PFB)
	dst = append(dst, `,"Base":`...)
	dst = appendJSONFloat(dst, est.Base)
	dst = append(dst, `,"Phi":`...)
	dst = appendJSONFloat(dst, est.Phi)
	dst = append(dst, `,"Nu":`...)
	dst = strconv.AppendInt(dst, int64(est.Nu), 10)
	dst = append(dst, `,"Correction":`...)
	dst = appendJSONFloat(dst, est.Correction)
	dst = append(dst, `,"SargableFactor":`...)
	dst = appendJSONFloat(dst, est.SargableFactor)
	return append(dst, '}')
}

// appendEstimateResponse appends one EstimateResponse document — the exact
// bytes encoding/json produces for the struct, without the struct.
func appendEstimateResponse(dst []byte, in *estimateInput, res *estimateResult) []byte {
	dst = append(dst, `{"table":`...)
	dst = appendJSONString(dst, in.table)
	dst = append(dst, `,"column":`...)
	dst = appendJSONString(dst, in.column)
	dst = append(dst, `,"b":`...)
	dst = strconv.AppendInt(dst, in.b, 10)
	dst = append(dst, `,"sigma":`...)
	dst = appendJSONFloat(dst, in.sigma)
	dst = append(dst, `,"s":`...)
	dst = appendJSONFloat(dst, in.s)
	dst = append(dst, `,"fetches":`...)
	dst = appendJSONFloat(dst, res.est.F)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, res.gen, 10)
	dst = append(dst, `,"cached":`...)
	dst = appendJSONBool(dst, res.cached)
	if in.detail {
		dst = append(dst, `,"detail":`...)
		dst = appendEstimateDetail(dst, &res.est)
	}
	return append(dst, '}')
}

// appendBatchItemError appends one failed BatchItem document.
func appendBatchItemError(dst []byte, msg string, status int) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendJSONString(dst, msg)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	return append(dst, '}')
}

// chunkingThreshold is net/http's response buffer size: a handler that
// finishes within it gets Content-Length filled in by the server, a larger
// body without one goes out chunked.
const chunkingThreshold = 2048

// writeResponseBytes mirrors writeJSON's header sequence with a
// pre-assembled body (the buffer already carries the trailing newline the
// old json.Encoder appended). A body past net/http's buffer gets an explicit
// Content-Length instead of chunked framing; smaller ones (every single
// estimate) leave it to the server and skip the header's allocations.
func writeResponseBytes(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if len(body) > chunkingThreshold {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// --- query-string parsing ---------------------------------------------------

var (
	errMissingTableColumn = errors.New("query parameters table and column are required")
)

// needsUnescape reports whether a query component contains percent escapes
// or '+' (space) and therefore cannot be used as a raw substring.
func needsUnescape(s string) bool {
	return strings.IndexByte(s, '%') >= 0 || strings.IndexByte(s, '+') >= 0
}

// parseEstimateQuery decodes GET /v1/estimate parameters straight off
// URL.RawQuery into out. The common case — unescaped parameters — allocates
// nothing: values are substrings of the raw query. Semantics match the old
// url.Values-based parser (pairs with semicolons or broken escapes are
// dropped, unknown parameters are ignored), with two hardenings on top:
// a parameter supplied more than once is a 400, and NaN/±Inf sigma or s are
// rejected here with the core typed sentinels instead of flowing onward.
func parseEstimateQuery(r *http.Request, out *estimateInput) error {
	*out = estimateInput{s: 1}
	const (
		seenTable = 1 << iota
		seenColumn
		seenB
		seenSigma
		seenS
		seenDetail
	)
	var seen uint8
	var rawB, rawSigma, rawS, rawDetail string

	query := r.URL.RawQuery
	for len(query) > 0 {
		pair := query
		if i := strings.IndexByte(query, '&'); i >= 0 {
			pair, query = query[:i], query[i+1:]
		} else {
			query = ""
		}
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue // url.Values drops semicolon pairs; so do we
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		if needsUnescape(key) {
			k, err := unescapeQuery(key)
			if err != nil {
				continue // url.Values drops undecodable pairs
			}
			key = k
		}
		var bit uint8
		switch key {
		case "table":
			bit = seenTable
		case "column":
			bit = seenColumn
		case "b":
			bit = seenB
		case "sigma":
			bit = seenSigma
		case "s":
			bit = seenS
		case "detail":
			bit = seenDetail
		default:
			continue // unknown parameters stay ignored
		}
		if seen&bit != 0 {
			return fmt.Errorf("query parameter %s supplied more than once", key)
		}
		seen |= bit
		if needsUnescape(val) {
			v, err := unescapeQuery(val)
			if err != nil {
				seen &^= bit
				continue
			}
			val = v
		}
		switch bit {
		case seenTable:
			out.table = val
		case seenColumn:
			out.column = val
		case seenB:
			rawB = val
		case seenSigma:
			rawSigma = val
		case seenS:
			rawS = val
		case seenDetail:
			rawDetail = val
		}
	}

	// Fixed validation order, matching the old parser: identity, b, sigma,
	// s, detail.
	if out.table == "" || out.column == "" {
		return errMissingTableColumn
	}
	var err error
	if out.b, err = strconv.ParseInt(rawB, 10, 64); err != nil {
		return fmt.Errorf("query parameter b: %w", err)
	}
	if out.sigma, err = strconv.ParseFloat(rawSigma, 64); err != nil {
		return fmt.Errorf("query parameter sigma: %w", err)
	}
	if math.IsNaN(out.sigma) || math.IsInf(out.sigma, 0) {
		return core.ErrBadSigma
	}
	if rawS != "" {
		if out.s, err = strconv.ParseFloat(rawS, 64); err != nil {
			return fmt.Errorf("query parameter s: %w", err)
		}
		if math.IsNaN(out.s) || math.IsInf(out.s, 0) {
			return core.ErrBadSarg
		}
	}
	if rawDetail != "" {
		if out.detail, err = strconv.ParseBool(rawDetail); err != nil {
			return fmt.Errorf("query parameter detail: %w", err)
		}
	}
	return nil
}

// unescapeQuery is url.QueryUnescape for the rare escaped component.
func unescapeQuery(s string) (string, error) {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '+':
			b.WriteByte(' ')
		case '%':
			if i+2 >= len(s) {
				return "", errors.New("invalid URL escape")
			}
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if !ok1 || !ok2 {
				return "", errors.New("invalid URL escape")
			}
			b.WriteByte(hi<<4 | lo)
			i += 2
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// --- batch body decoding ----------------------------------------------------

// errControlChar rejects a raw control byte inside a string, as JSON requires.
var errControlChar = errors.New("invalid batch JSON: control character in string")

// jsonScanner is a minimal JSON reader over one string. It understands
// exactly the BatchRequest grammar; strings without escapes and all number
// tokens come back as substrings of the input, so decoding a batch costs one
// string conversion for the whole body rather than per-field allocations.
type jsonScanner struct {
	s string
	i int
}

func (sc *jsonScanner) skipSpace() {
	for sc.i < len(sc.s) {
		switch sc.s[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

func (sc *jsonScanner) expect(c byte) error {
	sc.skipSpace()
	if sc.i >= len(sc.s) || sc.s[sc.i] != c {
		return fmt.Errorf("invalid batch JSON: expected %q at offset %d", c, sc.i)
	}
	sc.i++
	return nil
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (sc *jsonScanner) peek() byte {
	sc.skipSpace()
	if sc.i >= len(sc.s) {
		return 0
	}
	return sc.s[sc.i]
}

// literal consumes the given keyword (true/false/null).
func (sc *jsonScanner) literal(word string) error {
	sc.skipSpace()
	if !strings.HasPrefix(sc.s[sc.i:], word) {
		return fmt.Errorf("invalid batch JSON: expected %q at offset %d", word, sc.i)
	}
	sc.i += len(word)
	return nil
}

// plainStringByte marks the bytes str's fast path steps over: printable
// ASCII other than the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a JSON string. The fast path — no escapes, valid UTF-8 — returns
// a substring; the slow path decodes into a fresh string (rare for
// identifier-like values). Either way a string is read in one pass.
func (sc *jsonScanner) str() (string, error) {
	if err := sc.expect('"'); err != nil {
		return "", err
	}
	s, start := sc.s, sc.i // locals keep the loop in registers
	for i := start; i < len(s); {
		c := s[i]
		if plainStringByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			sc.i = i + 1
			return s[start:i], nil
		case c == '\\':
			sc.i = i
			return sc.strSlow(start)
		case c < 0x20:
			return "", errControlChar
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				sc.i = i
				return sc.strSlow(start)
			}
			i += size
		}
	}
	return "", errors.New("invalid batch JSON: unterminated string")
}

// strSlow finishes reading a string that contains at least one escape.
func (sc *jsonScanner) strSlow(start int) (string, error) {
	var b strings.Builder
	b.WriteString(sc.s[start:sc.i])
	for sc.i < len(sc.s) {
		c := sc.s[sc.i]
		switch {
		case c == '"':
			sc.i++
			return b.String(), nil
		case c == '\\':
			sc.i++
			if sc.i >= len(sc.s) {
				return "", errors.New("invalid batch JSON: truncated escape")
			}
			switch e := sc.s[sc.i]; e {
			case '"', '\\', '/':
				b.WriteByte(e)
				sc.i++
			case 'b':
				b.WriteByte('\b')
				sc.i++
			case 'f':
				b.WriteByte('\f')
				sc.i++
			case 'n':
				b.WriteByte('\n')
				sc.i++
			case 'r':
				b.WriteByte('\r')
				sc.i++
			case 't':
				b.WriteByte('\t')
				sc.i++
			case 'u':
				r, err := sc.unicodeEscape()
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			default:
				return "", fmt.Errorf("invalid batch JSON: bad escape \\%c", e)
			}
		case c < 0x20:
			return "", errControlChar
		default:
			r, size := utf8.DecodeRuneInString(sc.s[sc.i:])
			b.WriteRune(r) // invalid UTF-8 becomes U+FFFD, as encoding/json does
			sc.i += size
		}
	}
	return "", errors.New("invalid batch JSON: unterminated string")
}

// unicodeEscape reads the XXXX of a \uXXXX escape (the backslash and 'u' are
// already consumed), combining surrogate pairs like encoding/json.
func (sc *jsonScanner) unicodeEscape() (rune, error) {
	sc.i++ // consume 'u'
	r, err := sc.hex4()
	if err != nil {
		return 0, err
	}
	if utf16.IsSurrogate(r) {
		if strings.HasPrefix(sc.s[sc.i:], `\u`) {
			save := sc.i
			sc.i += 2
			r2, err := sc.hex4()
			if err != nil {
				return 0, err
			}
			if combined := utf16.DecodeRune(r, r2); combined != utf8.RuneError {
				return combined, nil
			}
			sc.i = save // unpaired: emit replacement, reprocess the second escape
		}
		return utf8.RuneError, nil
	}
	return r, nil
}

func (sc *jsonScanner) hex4() (rune, error) {
	if sc.i+4 > len(sc.s) {
		return 0, errors.New("invalid batch JSON: truncated \\u escape")
	}
	var r rune
	for k := 0; k < 4; k++ {
		v, ok := unhex(sc.s[sc.i+k])
		if !ok {
			return 0, errors.New("invalid batch JSON: bad \\u escape")
		}
		r = r<<4 | rune(v)
	}
	sc.i += 4
	return r, nil
}

// numberToken scans one JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// returning it as a substring for strconv; ParseInt/ParseFloat then convert
// it exactly as the reflection decoder did. A leading zero ends the integer
// part, so "05" leaves "5" to fail as a stray token.
func (sc *jsonScanner) numberToken() (string, error) {
	sc.skipSpace()
	start := sc.i
	if sc.i < len(sc.s) && sc.s[sc.i] == '-' {
		sc.i++
	}
	if sc.i < len(sc.s) && sc.s[sc.i] == '0' {
		sc.i++
	} else if sc.digits() == 0 {
		return "", fmt.Errorf("invalid batch JSON: expected number at offset %d", start)
	}
	if sc.i < len(sc.s) && sc.s[sc.i] == '.' {
		sc.i++
		if sc.digits() == 0 {
			return "", fmt.Errorf("invalid batch JSON: expected digit after decimal point at offset %d", sc.i)
		}
	}
	if sc.i < len(sc.s) && (sc.s[sc.i] == 'e' || sc.s[sc.i] == 'E') {
		sc.i++
		if sc.i < len(sc.s) && (sc.s[sc.i] == '+' || sc.s[sc.i] == '-') {
			sc.i++
		}
		if sc.digits() == 0 {
			return "", fmt.Errorf("invalid batch JSON: expected exponent digit at offset %d", sc.i)
		}
	}
	return sc.s[start:sc.i], nil
}

// digits consumes a run of decimal digits and reports its length.
func (sc *jsonScanner) digits() int {
	start := sc.i
	for sc.i < len(sc.s) && sc.s[sc.i] >= '0' && sc.s[sc.i] <= '9' {
		sc.i++
	}
	return sc.i - start
}

// itemField resolves a key inside a batch item to the EstimateRequest field
// it sets, matching the way encoding/json matches struct fields: an exact
// name first (compared inline), else a name under its case folding (see
// foldField). An unknown key resolves to "".
func itemField(key string) string {
	switch key {
	case "table", "column", "b", "sigma", "s", "detail":
		return key
	}
	return foldField(key, "table", "column", "b", "sigma", "s", "detail")
}

// foldField returns the name in names that key matches under
// encoding/json's field-name folding, which maps every rune r to
// unicode.ToUpper(unicode.ToLower(r)) — so "Sigma", "SIGMA" and "ſigma"
// (U+017F) all name sigma — or "" when none does.
func foldField(key string, names ...string) string {
	for _, name := range names {
		if foldsTo(key, name) {
			return name
		}
	}
	return ""
}

// foldsTo reports whether key folds to the lower-case ASCII name.
func foldsTo(key, name string) bool {
	j := 0
	for _, r := range key {
		if j == len(name) || unicode.ToUpper(unicode.ToLower(r)) != unicode.ToUpper(rune(name[j])) {
			return false
		}
		j++
	}
	return j == len(name)
}

// decodeBatchBody parses {"requests":[...]} into scratch.reqs, enforcing
// maxBatch while scanning so an oversized batch fails before its tail is
// parsed. It accepts exactly what the old DisallowUnknownFields json.Decoder
// accepted, and decodes it to the same items: unknown fields are errors,
// field names match case-insensitively, null field values are no-ops except
// on s (a nil S: no sargable predicates), a null body or item is an empty
// one, duplicate fields last-win — a repeated "requests" merges into the
// items the earlier one left — and trailing data after the document is
// ignored (json.Decoder reads exactly one value). FuzzDecodeBatchBody holds
// it to that.
func decodeBatchBody(body string, maxBatch int, scratch *batchScratch) error {
	sc := jsonScanner{s: body}
	scratch.reqs = scratch.reqs[:0]
	switch sc.peek() {
	case 0:
		return errors.New("decode request body: empty body")
	case 'n':
		if err := sc.literal("null"); err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		return nil
	}
	if err := sc.expect('{'); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	if sc.peek() == '}' {
		sc.i++
		return nil
	}
	backing := 0 // items json's backing array holds; see decodeRequestsArray
	for {
		key, err := sc.str()
		if err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		if err := sc.expect(':'); err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		switch foldField(key, "requests") {
		case "requests":
			if err := decodeRequestsArray(&sc, maxBatch, scratch, &backing); err != nil {
				return err
			}
		default:
			return fmt.Errorf("decode request body: json: unknown field %q", key)
		}
		switch sc.peek() {
		case ',':
			sc.i++
		case '}':
			sc.i++
			return nil
		default:
			return fmt.Errorf("decode request body: invalid batch JSON at offset %d", sc.i)
		}
	}
}

// decodeRequestsArray decodes one "requests" value. encoding/json decodes a
// repeated "requests" into the slice the earlier one filled: item i merges
// into the old item i, and an item past the current length but within the
// longest earlier array revives the element its backing array still holds.
// *backing tracks that high-water mark; null or [] starts a fresh slice.
func decodeRequestsArray(sc *jsonScanner, maxBatch int, scratch *batchScratch, backing *int) error {
	if sc.peek() == 'n' {
		if err := sc.literal("null"); err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		scratch.reqs, *backing = scratch.reqs[:0], 0
		return nil
	}
	if err := sc.expect('['); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	if sc.peek() == ']' {
		sc.i++
		scratch.reqs, *backing = scratch.reqs[:0], 0
		return nil
	}
	for n := 0; ; n++ {
		if maxBatch > 0 && n >= maxBatch {
			return fmt.Errorf("%w %d", ErrBatchTooLarge, maxBatch)
		}
		switch {
		case n < len(scratch.reqs):
		case n < *backing:
			scratch.reqs = scratch.reqs[:n+1]
		default:
			scratch.reqs = append(scratch.reqs, estimateInput{s: 1})
			*backing = n + 1
		}
		if err := decodeBatchItem(sc, &scratch.reqs[n]); err != nil {
			return err
		}
		switch sc.peek() {
		case ',':
			sc.i++
		case ']':
			sc.i++
			scratch.reqs = scratch.reqs[:n+1]
			return nil
		default:
			return fmt.Errorf("decode request body: invalid batch JSON at offset %d", sc.i)
		}
	}
}

// decodeBatchItem decodes one item into out, over whatever out holds: a
// field the item omits, or a null item, leaves out's value.
func decodeBatchItem(sc *jsonScanner, out *estimateInput) error {
	switch sc.peek() {
	case 'n':
		if err := sc.literal("null"); err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		return nil
	case '{':
		sc.i++
	default:
		return fmt.Errorf("decode request body: invalid batch JSON: expected '{' at offset %d", sc.i)
	}
	if sc.peek() == '}' {
		sc.i++
		return nil
	}
	for {
		key, err := sc.str()
		if err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		if err := sc.expect(':'); err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		null := sc.peek() == 'n'
		if null {
			if err := sc.literal("null"); err != nil {
				return fmt.Errorf("decode request body: %w", err)
			}
		}
		switch name := itemField(key); name {
		case "table", "column":
			if !null {
				v, err := sc.str()
				if err != nil {
					return fmt.Errorf("decode request body: field %s: %w", name, err)
				}
				if name == "table" {
					out.table = v
				} else {
					out.column = v
				}
			}
		case "b":
			if !null {
				tok, err := sc.numberToken()
				if err != nil {
					return fmt.Errorf("decode request body: field b: %w", err)
				}
				if out.b, err = strconv.ParseInt(tok, 10, 64); err != nil {
					return fmt.Errorf("decode request body: cannot decode number %q into field b", tok)
				}
			}
		case "sigma", "s":
			if null {
				if name == "s" {
					out.s = 1 // json resets the *float64 to nil
				}
				break
			}
			tok, err := sc.numberToken()
			if err != nil {
				return fmt.Errorf("decode request body: field %s: %w", name, err)
			}
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return fmt.Errorf("decode request body: cannot decode number %q into field %s", tok, name)
			}
			if name == "sigma" {
				out.sigma = v
			} else {
				out.s = v
			}
		case "detail":
			if !null {
				switch sc.peek() {
				case 't':
					if err := sc.literal("true"); err != nil {
						return fmt.Errorf("decode request body: %w", err)
					}
					out.detail = true
				case 'f':
					if err := sc.literal("false"); err != nil {
						return fmt.Errorf("decode request body: %w", err)
					}
					out.detail = false
				default:
					return fmt.Errorf("decode request body: field detail: expected bool at offset %d", sc.i)
				}
			}
		default:
			return fmt.Errorf("decode request body: json: unknown field %q", key)
		}
		switch sc.peek() {
		case ',':
			sc.i++
		case '}':
			sc.i++
			return nil
		default:
			return fmt.Errorf("decode request body: invalid batch JSON at offset %d", sc.i)
		}
	}
}
