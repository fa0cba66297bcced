package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/obs"
	"epfis/internal/resilience"
)

// Client is the thin Go client for the estimation service. It retries
// transport errors and 429/503 responses with the configured policy,
// honoring the server's Retry-After header, and treats every other non-2xx
// status as permanent. Safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	retry resilience.RetryPolicy
}

// ClientConfig configures NewClient. BaseURL is required.
type ClientConfig struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Retry tunes the retry policy; the zero value uses the resilience
	// defaults (4 attempts, 50ms → 2s backoff with jitter).
	Retry resilience.RetryPolicy
}

// NewClient builds a client for the service at cfg.BaseURL.
func NewClient(cfg ClientConfig) (*Client, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("service: bad base URL %q", cfg.BaseURL)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimSuffix(u.String(), "/"), http: hc, retry: cfg.Retry}, nil
}

// StatusError is a non-2xx service response. Is(err, ...) matching works
// through errors.As.
type StatusError struct {
	Code    int    // HTTP status
	Message string // server-provided error string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("service: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// fenceKey is the context key WithFence stores tokens under.
type fenceKey struct{}

// WithFence returns a context whose requests carry fence tokens (the
// "fence" field of cluster PUT and DELETE acknowledgements) in X-Epfis-Fence:
// a node that has not applied a fenced write refuses with ErrStaleReplica.
func WithFence(ctx context.Context, tokens ...string) context.Context {
	return context.WithValue(ctx, fenceKey{}, tokens)
}

// retryable reports whether the response status is worth retrying: shed
// (429) and unavailable (503) are explicitly transient on this service.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// Estimate fetches one estimate. The returned response is bit-exact with a
// direct core.EstimateFetches call against the served generation.
func (c *Client) Estimate(ctx context.Context, req EstimateRequest) (EstimateResponse, error) {
	buf := getBuf()
	defer putBuf(buf)
	b := append(*buf, "/v1/estimate?table="...)
	b = appendQueryEscape(b, req.Table)
	b = append(b, "&column="...)
	b = appendQueryEscape(b, req.Column)
	b = append(b, "&b="...)
	b = strconv.AppendInt(b, req.B, 10)
	b = append(b, "&sigma="...)
	b = strconv.AppendFloat(b, req.Sigma, 'g', -1, 64)
	if req.S != nil {
		b = append(b, "&s="...)
		b = strconv.AppendFloat(b, *req.S, 'g', -1, 64)
	}
	if req.Detail {
		b = append(b, "&detail=1"...)
	}
	*buf = b
	var out EstimateResponse
	err := c.do(ctx, http.MethodGet, string(b), nil, &out)
	return out, err
}

// EstimateBatch fetches many estimates in one round trip. The request body
// is encoded into a pooled buffer (appendBatchRequest emits the same bytes
// json.Marshal would), so a load generator issuing batches back to back
// reuses one buffer instead of re-allocating per call.
func (c *Client) EstimateBatch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	for i := range req.Requests {
		r := &req.Requests[i]
		if badJSONNumber(r.Sigma) || (r.S != nil && badJSONNumber(*r.S)) {
			return out, fmt.Errorf("service: encode request: unsupported value in request %d", i)
		}
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendBatchRequest(*buf, &req)
	err := c.do(ctx, http.MethodPost, "/v1/estimate/batch", *buf, &out)
	return out, err
}

func badJSONNumber(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }

// appendBatchRequest encodes a BatchRequest exactly as encoding/json does
// (field order, omitempty s and detail), into a caller-owned buffer.
func appendBatchRequest(dst []byte, req *BatchRequest) []byte {
	dst = append(dst, `{"requests":`...)
	if req.Requests == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range req.Requests {
		r := &req.Requests[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"table":`...)
		dst = appendJSONString(dst, r.Table)
		dst = append(dst, `,"column":`...)
		dst = appendJSONString(dst, r.Column)
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendInt(dst, r.B, 10)
		dst = append(dst, `,"sigma":`...)
		dst = appendJSONFloat(dst, r.Sigma)
		if r.S != nil {
			dst = append(dst, `,"s":`...)
			dst = appendJSONFloat(dst, *r.S)
		}
		if r.Detail {
			dst = append(dst, `,"detail":true`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendQueryEscape appends url.QueryEscape(s) to dst without intermediate
// strings.
func appendQueryEscape(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', upperHexDigits[c>>4], upperHexDigits[c&0xF])
		}
	}
	return dst
}

const upperHexDigits = "0123456789ABCDEF"

// Reload asks the service to re-read its catalog file, returning the new
// generation.
func (c *Client) Reload(ctx context.Context) (uint64, error) {
	var out struct {
		Generation uint64 `json:"generation"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/reload", nil, &out)
	return out.Generation, err
}

// Health fetches /healthz. A draining instance (503) is reported as a
// *StatusError after retries, with the decoded document discarded.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// do runs one JSON request through the retry policy. body (may be nil) is a
// pre-encoded JSON document owned by the caller for the duration of the
// call; responses are read into a pooled buffer and decoded from it. Every
// attempt carries the same traceparent — taken from ctx when the caller put
// one there (obs.ContextWithTraceparent), freshly generated otherwise — so
// the retries of one logical call correlate server-side.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	tp, ok := obs.TraceparentFrom(ctx)
	if !ok {
		tp = obs.NewTraceparent()
	}
	traceparent := tp.String()
	fences, _ := ctx.Value(fenceKey{}).([]string)
	return resilience.Retry(ctx, c.retry, func(ctx context.Context) error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return resilience.Permanent(err)
		}
		req.Header.Set(obs.TraceparentHeader, traceparent)
		for _, f := range fences {
			req.Header.Add(cluster.HeaderFence, f)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err // transport errors retry on the backoff schedule
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		// Read the whole response into a pooled buffer: one reusable
		// allocation across calls instead of a fresh json.Decoder buffer per
		// response.
		rbuf := getBuf()
		defer putBuf(rbuf)
		raw, err := readBody(resp.Body, *rbuf)
		*rbuf = raw
		if err != nil {
			return fmt.Errorf("service: read response: %w", err)
		}
		if resp.StatusCode/100 != 2 {
			serr := &StatusError{Code: resp.StatusCode}
			var msg struct {
				Error string `json:"error"`
			}
			if jerr := json.Unmarshal(raw, &msg); jerr == nil {
				serr.Message = msg.Error
			}
			if !retryable(resp.StatusCode) {
				return resilience.Permanent(serr)
			}
			if d := parseRetryAfter(resp.Header.Get("Retry-After")); d > 0 {
				return resilience.After(serr, d)
			}
			return serr
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return resilience.Permanent(fmt.Errorf("service: decode response: %w", err))
		}
		return nil
	})
}

// parseRetryAfter handles both Retry-After forms: delay-seconds and
// HTTP-date. Zero means "no usable hint".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
