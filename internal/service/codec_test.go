package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"epfis/internal/core"
)

// --- encoder equivalence ----------------------------------------------------

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"orders",
		"plain ascii",
		`quotes " and \ backslashes`,
		"html <script>&amp;</script>",
		"tabs\tnewlines\nreturns\r",
		"controls \x00\x01\x1f\x7f",
		"backspace\bformfeed\f",
		"unicode: héllo wörld 日本語 🚀",
		"line sep \u2028 and para sep \u2029",
		"invalid utf8: \xff\xfe\xc3\x28",
		"surrogate-ish \xed\xa0\x80 bytes",
		strings.Repeat("long", 100) + "<&>",
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%q): %v", s, err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(want, got) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json = %s", s, got, want)
		}
	}
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.05, 0.128, 444.3272727272727,
		1e-7, 9.999999e-7, 1e-6, 1.0000001e-6, 0.999999999e21, 1e21, 1e22,
		-1e-7, -1e21, 123456789.123456789, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1.5e-9, 3.0000000000000004,
	}
	rng := rand.New(rand.NewSource(12))
	for len(cases) < 2000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		cases = append(cases, f)
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", f, err)
		}
		got := appendJSONFloat(nil, f)
		if !bytes.Equal(want, got) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json = %s", f, got, want)
		}
	}
}

// FuzzEncodeEstimateResponse holds the serving path's hand-rolled encoder
// to encoding/json over any table and column strings (invalid UTF-8, HTML
// characters and U+2028 included), any finite floats, any generation, and
// both detail settings: appendEstimateResponse must equal json.Marshal of
// the same EstimateResponse, and appendBatchItemError json.Marshal of the
// matching failed BatchItem, whose message is never empty and whose status
// is never zero.
func FuzzEncodeEstimateResponse(f *testing.F) {
	f.Add("orders", "key", int64(64), 0.05, 1.0, 444.3272727272727, 512.5, 25.6, 0.128, 1, 418.7, 1.0, uint64(7), false, true, "core: invalid estimation input: b must be >= 1", 400)
	f.Add(`we<ird&"table`, "col umn\t\u2028\xff", int64(-1), 1e-7, 0.25, 1e21, -0.0, 5e-324, 1.5e-9, 0, 3.0000000000000004, 0.999999999e21, uint64(1<<63), true, false, "<&>\u2029", 503)
	f.Fuzz(func(t *testing.T, table, column string, b int64, sigma, s, fetches, pfb, base, phi float64, nu int, corr, sarg float64, gen uint64, cached, detail bool, msg string, status int) {
		for _, x := range []float64{sigma, s, fetches, pfb, base, phi, corr, sarg} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("estimates and inputs are finite")
			}
		}
		in := estimateInput{table: table, column: column, b: b, sigma: sigma, s: s, detail: detail}
		res := estimateResult{est: core.Estimate{F: fetches, PFB: pfb, Base: base, Phi: phi, Nu: nu, Correction: corr, SargableFactor: sarg}, gen: gen, cached: cached}
		want := EstimateResponse{Table: table, Column: column, B: b, Sigma: sigma, S: s, Fetches: fetches, Generation: gen, Cached: cached}
		if detail {
			want.Detail = &res.est
		}
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendEstimateResponse(nil, &in, &res); !bytes.Equal(got, wantBytes) {
			t.Fatalf("appendEstimateResponse:\n got  %s\n want %s", got, wantBytes)
		}
		if msg == "" || status == 0 {
			return
		}
		wantItem, err := json.Marshal(BatchItem{Error: msg, Status: status})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBatchItemError(nil, msg, status); !bytes.Equal(got, wantItem) {
			t.Fatalf("appendBatchItemError:\n got  %s\n want %s", got, wantItem)
		}
	})
}

// TestEstimateResponseBytesMatchOldCodec serves /v1/estimate and requires the
// body to equal, byte for byte, what the old writeJSON (json.Encoder over
// EstimateResponse) produced for the same answer — including the trailing
// newline. Covers detail on/off, cached on/off, and names needing escapes.
func TestEstimateResponseBytesMatchOldCodec(t *testing.T) {
	srv, store, st := newTestServer(t)
	weird := fitStats(t, `we<ird&"table`, "col umn\t✓", 7)
	if _, err := store.Put(weird); err != nil {
		t.Fatal(err)
	}

	serve := func(rawQuery string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/estimate?"+rawQuery, nil)
		srv.ServeHTTP(rec, req)
		return rec
	}
	oldEncode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, c := range []struct {
		name          string
		table, column string
		b             int64
		sigma, s      float64
		sExplicit     bool
		detail        bool
	}{
		{name: "plain", table: st.Table, column: st.Column, b: 64, sigma: 0.05, s: 1},
		{name: "detail", table: st.Table, column: st.Column, b: 64, sigma: 0.05, s: 0.25, sExplicit: true, detail: true},
		{name: "sigma_zero", table: st.Table, column: st.Column, b: 10, sigma: 0, s: 1, detail: true},
		{name: "escaped_names", table: weird.Table, column: weird.Column, b: 32, sigma: 0.5, s: 1},
	} {
		q := url.Values{}
		q.Set("table", c.table)
		q.Set("column", c.column)
		q.Set("b", strconv.FormatInt(c.b, 10))
		q.Set("sigma", strconv.FormatFloat(c.sigma, 'g', -1, 64))
		if c.sExplicit {
			q.Set("s", strconv.FormatFloat(c.s, 'g', -1, 64))
		}
		if c.detail {
			q.Set("detail", "1")
		}
		entry, err := store.Snapshot().Get(c.table, c.column)
		if err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			rec := serve(q.Encode())
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d body %s", c.name, rec.Code, rec.Body.String())
			}
			est, err := core.EstIO(entry, core.Input{B: c.b, Sigma: c.sigma, S: c.s}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := EstimateResponse{
				Table: c.table, Column: c.column, B: c.b, Sigma: c.sigma, S: c.s,
				Fetches: est.F, Generation: store.Generation(), Cached: cached,
			}
			if c.detail {
				want.Detail = &est
			}
			if got, wantBytes := rec.Body.Bytes(), oldEncode(want); !bytes.Equal(got, wantBytes) {
				t.Errorf("%s (cached=%v):\n got  %s\n want %s", c.name, cached, got, wantBytes)
			}
		}
	}
}

// TestBatchResponseBytesMatchOldCodec does the same for the batch route,
// mixing successful items, per-item 400s, and per-item 404s. Batch items skip
// the memo, so every estimate reports cached:false — a repeated item too.
func TestBatchResponseBytesMatchOldCodec(t *testing.T) {
	srv, store, st := newTestServer(t)
	sarg := 0.5
	breq := BatchRequest{Requests: []EstimateRequest{
		{Table: st.Table, Column: st.Column, B: 64, Sigma: 0.05},
		{Table: st.Table, Column: st.Column, B: 128, Sigma: 0.2, S: &sarg, Detail: true},
		{Table: st.Table, Column: st.Column, B: 0, Sigma: 0.05},  // per-item 400
		{Table: "nosuch", Column: "idx", B: 64, Sigma: 0.05},     // per-item 404
		{Table: st.Table, Column: st.Column, B: 64, Sigma: 0.05}, // repeat of item 0
	}}
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the memo with item 0's shape through the single route: the batch
	// must still compute it afresh.
	warm := httptest.NewRecorder()
	srv.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/v1/estimate?table=orders&column=key&b=64&sigma=0.05", nil))
	if warm.Code != http.StatusOK {
		t.Fatalf("warm-up status %d body %s", warm.Code, warm.Body.String())
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bytes.NewReader(body))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body.String())
	}

	// Replicate the old handler: estimate each request and encode the
	// BatchResponse with encoding/json.
	snap := store.Snapshot()
	want := BatchResponse{Count: len(breq.Requests), Generation: snap.Generation(), Items: make([]BatchItem, len(breq.Requests))}
	for i, r := range breq.Requests {
		in := estimateInput{table: r.Table, column: r.Column, b: r.B, sigma: r.Sigma, s: r.sarg(), detail: r.Detail}
		var est core.Estimate
		if err := estimateInto(snap, &in, &est); err != nil {
			want.Items[i] = BatchItem{Error: err.Error(), Status: statusOf(err)}
			want.Failed++
			continue
		}
		item := EstimateResponse{
			Table: r.Table, Column: r.Column, B: r.B, Sigma: r.Sigma, S: in.s,
			Fetches: est.F, Generation: snap.Generation(),
		}
		if r.Detail {
			item.Detail = &est
		}
		want.Items[i] = BatchItem{Estimate: &item}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	got := rec.Body.Bytes()
	if !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("batch bytes differ:\n got  %s\n want %s", got, buf.Bytes())
	}
	// And neither item 0 nor its repeat was served from the memo.
	var served BatchResponse
	if err := json.Unmarshal(got, &served); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4} {
		if served.Items[i].Estimate.Cached {
			t.Errorf("batch item %d reports cached:true; batch items bypass the memo", i)
		}
	}
}

// TestGoldenEstimateResponse pins the exact serving bytes for a fixed
// catalog (datagen seed 1) — the same bytes the pre-codec-swap service
// produced, recorded before the swap.
func TestGoldenEstimateResponse(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, c := range []struct {
		query  string
		golden string
	}{
		{
			query:  "/v1/estimate?table=orders&column=key&b=64&sigma=0.05",
			golden: "{\"table\":\"orders\",\"column\":\"key\",\"b\":64,\"sigma\":0.05,\"s\":1,\"fetches\":444.3272727272727,\"generation\":1,\"cached\":false}\n",
		},
		{
			query:  "/v1/estimate?table=orders&column=key&b=64&sigma=0.05&s=0.25&detail=1",
			golden: "{\"table\":\"orders\",\"column\":\"key\",\"b\":64,\"sigma\":0.05,\"s\":0.25,\"fetches\":190.7508866613224,\"generation\":1,\"cached\":false,\"detail\":{\"F\":190.7508866613224,\"PFB\":8886.545454545454,\"Base\":444.3272727272727,\"Phi\":0.128,\"Nu\":0,\"Correction\":0,\"SargableFactor\":0.4293026747840548}}\n",
		},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", c.query, rec.Code)
		}
		if got := rec.Body.String(); got != c.golden {
			t.Errorf("%s:\n got  %q\n want %q", c.query, got, c.golden)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", c.query, ct)
		}
	}
}

// TestAppendBatchRequestMatchesEncodingJSON checks the client-side pooled
// encoder emits exactly json.Marshal's bytes for BatchRequest.
func TestAppendBatchRequestMatchesEncodingJSON(t *testing.T) {
	half := 0.5
	zero := 0.0
	for _, req := range []BatchRequest{
		{},
		{Requests: []EstimateRequest{}},
		{Requests: []EstimateRequest{{Table: "orders", Column: "key", B: 64, Sigma: 0.05}}},
		{Requests: []EstimateRequest{
			{Table: `we<ird&"t`, Column: "c\t✓", B: -1, Sigma: 1e-7, S: &half, Detail: true},
			{Table: "a", Column: "b", B: 9007199254740993, Sigma: 0.3333333333333333, S: &zero},
		}},
	} {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got := appendBatchRequest(nil, &req)
		if !bytes.Equal(want, got) {
			t.Errorf("appendBatchRequest:\n got  %s\n want %s", got, want)
		}
	}
}

// --- batch body decoder -----------------------------------------------------

// decodedBodies are batch bodies encoding/json accepts. The rows after the
// first block are cases an earlier decoder got wrong.
var decodedBodies = []string{
	`{"requests":[]}`,
	`{}`,
	`{"requests":null}`,
	`{"requests":[{"table":"orders","column":"key","b":64,"sigma":0.05}]}`,
	`{"requests":[{"table":"orders","column":"key","b":64,"sigma":0.05,"s":0.25,"detail":true}]}`,
	`{"requests":[{"table":"orders","column":"key","b":64,"sigma":0.05,"s":null}]}`,
	`{"requests":[{"b":-3,"sigma":1e-3,"table":"t","column":"c","detail":false}]}`,
	`{"requests":[{"table":"esc\"aped\u0041\t","column":"日本\u2028","b":1,"sigma":1}]}`,
	`{"requests":[{"table":"dup","column":"x","b":1,"b":2,"sigma":0.5}]}`,
	"{\n  \"requests\" : [ { \"table\" : \"w s\" , \"column\" : \"c\" , \"b\" : 9007199254740993 , \"sigma\" : 0.3333333333333333 } ]\n}",
	`{"requests":[{"table":"a","column":"b","b":1,"sigma":0.1},{"table":"c","column":"d","b":2,"sigma":0.2,"s":1e-6}]}`,
	`{"requests":[{"table":null,"column":null,"b":null,"sigma":null,"detail":null}]}`,
	`{"requests":[{"table":"\ud83d\ude00","column":"\ud800","b":1,"sigma":0}]}`,
	`{"requests":[{"table":"t","column":"c","b":-0,"sigma":0.5E+1,"s":1.25e-1}]}`,
	`{"requests":[{"b":1}],"requests":[],"requests":[{},{}]}`, // [] starts afresh

	`{"requests":[null]}`, // a null item is an empty one
	`{"requests":[{"Table":"t","COLUMN":"c","B":1,"Sigma":0.5,"S":0.5,"Detail":true}]}`, // names fold case
	`{"Requests":[{"table":"t","column":"c","b":1,"sigma":0.5}]}`,
	`{"requests":[{"table":"t","column":"c","b":1,"ſigma":0.5}]}`,                        // U+017F folds to S
	"{\"requests\":[{\"table\":\"a\xffb\",\"column\":\"c\xc3\",\"b\":1,\"sigma\":0.5}]}", // invalid UTF-8 becomes U+FFFD
	`{"requests":[{"table":"t","column":"c","b":1,"sigma":0.5,"s":0.5,"s":null}]}`,       // a null s resets S to nil
	`{"requests":[{"b":1},{"b":2}],"requests":[{"sigma":0.5}],"requests":[{},{}]}`,       // repeats merge, revive
	` null `, // json.Decoder leaves the request empty
}

// TestDecodeBatchBodyMatchesEncodingJSON decodes a range of valid bodies with
// both the streaming scanner and the old json.Decoder and requires identical
// resolved inputs.
func TestDecodeBatchBodyMatchesEncodingJSON(t *testing.T) {
	for _, body := range decodedBodies {
		var old BatchRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&old); err != nil {
			t.Fatalf("encoding/json rejected fixture %s: %v", body, err)
		}
		scratch := &batchScratch{}
		if err := decodeBatchBody(body, 1024, scratch); err != nil {
			t.Errorf("decodeBatchBody(%s): %v", body, err)
			continue
		}
		if d := diffDecoded(scratch.reqs, old.Requests); d != "" {
			t.Errorf("%s: %s", body, d)
		}
	}
}

// diffDecoded compares decoded inputs with encoding/json's items field by
// field (a nil S is s = 1) and describes the first difference.
func diffDecoded(got []estimateInput, want []EstimateRequest) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d items, encoding/json %d", len(got), len(want))
	}
	for i, r := range want {
		w := estimateInput{table: r.Table, column: r.Column, b: r.B, sigma: r.Sigma, s: r.sarg(), detail: r.Detail}
		if got[i] != w {
			return fmt.Sprintf("item %d:\n got  %+v\n want %+v", i, got[i], w)
		}
	}
	return ""
}

// rejectedBodies are batch bodies encoding/json rejects, with a fragment of
// the error decodeBatchBody must give. The rows after the first block are
// cases an earlier decoder accepted.
var rejectedBodies = []struct {
	body     string
	fragment string
}{
	{``, "decode request body"},
	{`[]`, "decode request body"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":0.1}`, "decode request body"},
	{`{"unknown":1}`, `unknown field "unknown"`},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":0.1,"extra":true}]}`, `unknown field "extra"`},
	{`{"requests":[{"table":"t","column":"c","b":"12","sigma":0.1}]}`, "decode request body"},
	{`{"requests":[{"table":"t","column":"c","b":1.5,"sigma":0.1}]}`, "field b"},
	{`{"requests":[{"table":"t","column":"c","b":1e3,"sigma":0.1}]}`, "field b"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":1e999}]}`, "field sigma"},
	{`{"requests":[{"table":12,"column":"c","b":1,"sigma":0.1}]}`, "decode request body"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":NaN}]}`, "decode request body"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":0.1,"detail":"yes"}]}`, "field detail"},
	{`nul`, "decode request body"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigmax":0.1}]}`, `unknown field "sigmax"`},

	{"{\"requests\":[{\"table\":\"a\tb\",\"column\":\"c\",\"b\":1,\"sigma\":0.1}]}", "control character"},
	{"{\"requests\":[{\"table\":\"t\",\"column\":\"a\x01b\",\"b\":1,\"sigma\":0.1}]}", "control character"},
	{`{"requests":[{"table":"t","column":"c","b":05,"sigma":0.1}]}`, "invalid batch JSON at offset"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":-01}]}`, "invalid batch JSON at offset"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":1.}]}`, "digit after decimal point"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":1.e5}]}`, "digit after decimal point"},
	{`{"requests":[{"table":"t","column":"c","b":1,"sigma":1e+}]}`, "exponent digit"},
}

func TestDecodeBatchBodyRejections(t *testing.T) {
	for _, c := range rejectedBodies {
		dec := json.NewDecoder(strings.NewReader(c.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(new(BatchRequest)); err == nil {
			t.Fatalf("encoding/json accepted fixture %s", c.body)
		}
		if err := decodeBatchBody(c.body, 1024, &batchScratch{}); err == nil {
			t.Errorf("decodeBatchBody(%s) accepted", c.body)
		} else if !strings.Contains(err.Error(), c.fragment) {
			t.Errorf("decodeBatchBody(%s) = %q, want fragment %q", c.body, err, c.fragment)
		}
	}
	// The batch limit is enforced while scanning; null items count.
	err := decodeBatchBody(`{"requests":[{"b":1},null,{"b":3}]}`, 2, &batchScratch{})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit 2") {
		t.Errorf("limit breach = %v", err)
	}
}

// FuzzDecodeBatchBody holds decodeBatchBody to the decoder it replaced,
// encoding/json with DisallowUnknownFields into BatchRequest: both accept or
// both reject, and an accepted body decodes to the same items. The limit is
// off, since json has none.
func FuzzDecodeBatchBody(f *testing.F) {
	for _, body := range decodedBodies {
		f.Add(body)
	}
	for _, c := range rejectedBodies {
		f.Add(c.body)
	}
	f.Add(string(batch64Body(f)))
	f.Fuzz(func(t *testing.T, body string) {
		var want BatchRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		scratch := &batchScratch{}
		err := decodeBatchBody(body, math.MaxInt, scratch)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeBatchBody error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if d := diffDecoded(scratch.reqs, want.Requests); d != "" {
			t.Fatal(d)
		}
	})
}

// --- query parsing ----------------------------------------------------------

func TestParseEstimateQueryHardening(t *testing.T) {
	parse := func(rawQuery string) (estimateInput, error) {
		r := httptest.NewRequest(http.MethodGet, "/v1/estimate?"+rawQuery, nil)
		var in estimateInput
		err := parseEstimateQuery(r, &in)
		return in, err
	}

	// Plain and escaped parameters decode as before.
	in, err := parse("table=orders&column=key&b=64&sigma=0.05&s=0.25&detail=1")
	if err != nil {
		t.Fatal(err)
	}
	if in != (estimateInput{table: "orders", column: "key", b: 64, sigma: 0.05, s: 0.25, detail: true}) {
		t.Fatalf("parsed %+v", in)
	}
	in, err = parse("table=we%3Cird%26%22table&column=col+umn%09%E2%9C%93&b=1&sigma=1")
	if err != nil {
		t.Fatal(err)
	}
	if in.table != `we<ird&"table` || in.column != "col umn\t✓" {
		t.Fatalf("unescaped %q %q", in.table, in.column)
	}

	// Omitted s defaults to 1; empty s is treated as omitted (old behavior).
	if in, err = parse("table=t&column=c&b=1&sigma=0.5&s="); err != nil || in.s != 1 {
		t.Fatalf("empty s: %+v, %v", in, err)
	}

	// Unknown parameters are ignored, even duplicated.
	if _, err = parse("table=t&column=c&b=1&sigma=0.5&zz=1&zz=2"); err != nil {
		t.Fatalf("unknown parameters rejected: %v", err)
	}

	// Duplicated known parameters are rejected.
	for _, q := range []string{
		"table=t&table=t&column=c&b=1&sigma=0.5",
		"table=t&column=c&b=1&b=2&sigma=0.5",
		"table=t&column=c&b=1&sigma=0.5&sigma=0.5",
		"table=t&column=c&b=1&sigma=0.5&s=1&s=1",
	} {
		if _, err := parse(q); err == nil || !strings.Contains(err.Error(), "more than once") {
			t.Errorf("parse(%s) = %v, want duplicate rejection", q, err)
		}
	}
	// A pair whose value does not unescape is dropped, as url.Values drops
	// it, so it is no repeat in either order.
	for _, q := range []string{
		"table=a&column=c&b=10&sigma=0.5&table=%zz",
		"table=%zz&column=c&b=10&sigma=0.5&table=a",
	} {
		if in, err := parse(q); err != nil || in.table != "a" {
			t.Errorf("parse(%s) = %+v, %v, want table a", q, in, err)
		}
	}

	// Non-finite sigma and s are rejected with the core typed sentinels.
	if _, err := parse("table=t&column=c&b=1&sigma=NaN"); !errors.Is(err, core.ErrBadSigma) {
		t.Errorf("NaN sigma: %v, want ErrBadSigma", err)
	}
	if _, err := parse("table=t&column=c&b=1&sigma=Inf"); !errors.Is(err, core.ErrBadSigma) {
		t.Errorf("Inf sigma: %v, want ErrBadSigma", err)
	}
	if _, err := parse("table=t&column=c&b=1&sigma=0.5&s=NaN"); !errors.Is(err, core.ErrBadSarg) {
		t.Errorf("NaN s: %v, want ErrBadSarg", err)
	}
	if _, err := parse("table=t&column=c&b=1&sigma=0.5&s=-Inf"); !errors.Is(err, core.ErrBadSarg) {
		t.Errorf("-Inf s: %v, want ErrBadSarg", err)
	}
	// Finite out-of-domain values still flow to Est-IO (whose sentinels the
	// handler maps to 400), preserving the old division of labor.
	if _, err := parse("table=t&column=c&b=1&sigma=1.5"); err != nil {
		t.Errorf("finite out-of-range sigma rejected at parse time: %v", err)
	}

	// Error precedence matches the old parser regardless of parameter order.
	if _, err := parse("sigma=bad&b=alsobad&table=t&column=c"); err == nil ||
		!strings.Contains(err.Error(), "parameter b") {
		t.Errorf("precedence: %v, want b error first", err)
	}
	if _, err := parse("b=1&sigma=0.5"); err == nil ||
		!strings.Contains(err.Error(), "table and column are required") {
		t.Errorf("missing identity: %v", err)
	}
}

// TestParseEstimateQueryNonFiniteOverHTTP proves the hardening surfaces as a
// 400 with the typed sentinel message, end to end.
func TestParseEstimateQueryNonFiniteOverHTTP(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, q := range []string{
		"/v1/estimate?table=orders&column=key&b=64&sigma=NaN",
		"/v1/estimate?table=orders&column=key&b=64&sigma=%2BInf",
		"/v1/estimate?table=orders&column=key&b=64&sigma=0.05&s=Infinity",
		"/v1/estimate?table=orders&column=key&b=64&b=64&sigma=0.05",
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400 (body %s)", q, rec.Code, rec.Body.String())
		}
	}
}

func TestParseEstimateQueryZeroAlloc(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet,
		"/v1/estimate?table=orders&column=key&b=64&sigma=0.05&s=0.25&detail=1", nil)
	var in estimateInput
	if n := testing.AllocsPerRun(200, func() {
		if err := parseEstimateQuery(r, &in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("parseEstimateQuery allocates %v/op, want 0", n)
	}
}

// parseEstimateQueryRef is parseEstimateQuery's specification over
// url.ParseQuery: the pairs url.Values keeps, then a repeated known
// parameter, identity, b, sigma, s and detail in that order, with NaN and
// ±Inf sigma or s refused with the core sentinels.
func parseEstimateQueryRef(rawQuery string) (estimateInput, error) {
	vals, _ := url.ParseQuery(rawQuery) // dropped pairs are not errors
	for _, k := range []string{"table", "column", "b", "sigma", "s", "detail"} {
		if len(vals[k]) > 1 {
			return estimateInput{}, fmt.Errorf("query parameter %s supplied more than once", k)
		}
	}
	in := estimateInput{table: vals.Get("table"), column: vals.Get("column"), s: 1}
	if in.table == "" || in.column == "" {
		return in, errMissingTableColumn
	}
	var err error
	if in.b, err = strconv.ParseInt(vals.Get("b"), 10, 64); err != nil {
		return in, fmt.Errorf("query parameter b: %w", err)
	}
	if in.sigma, err = strconv.ParseFloat(vals.Get("sigma"), 64); err != nil {
		return in, fmt.Errorf("query parameter sigma: %w", err)
	}
	if math.IsNaN(in.sigma) || math.IsInf(in.sigma, 0) {
		return in, core.ErrBadSigma
	}
	if raw := vals.Get("s"); raw != "" {
		if in.s, err = strconv.ParseFloat(raw, 64); err != nil {
			return in, fmt.Errorf("query parameter s: %w", err)
		}
		if math.IsNaN(in.s) || math.IsInf(in.s, 0) {
			return in, core.ErrBadSarg
		}
	}
	if raw := vals.Get("detail"); raw != "" {
		if in.detail, err = strconv.ParseBool(raw); err != nil {
			return in, fmt.Errorf("query parameter detail: %w", err)
		}
	}
	return in, nil
}

// FuzzParseEstimateQuery holds the zero-allocation query parser to
// parseEstimateQueryRef: the same verdict, the same error (a repeat may
// name another key: url.Values does not keep order), the same input.
func FuzzParseEstimateQuery(f *testing.F) {
	for _, q := range []string{
		"table=orders&column=key&b=64&sigma=0.05&s=0.25&detail=1",
		"table=we%3Cird%26%22table&column=col+umn%09%E2%9C%93&b=1&sigma=1",
		"table=t&column=c&b=1&sigma=0.5&s=",
		"table=t&column=c&b=1&b=2&sigma=0.5",
		"table=a&column=c&b=10&sigma=0.5&table=%zz",
		"table=t;x&column=c&b=1&sigma=NaN",
		"sigma=bad&b=alsobad&table=t&column=c",
		"%74able=t&column=c&&b=+1&sigma=-Inf&detail=maybe",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		var got estimateInput
		err := parseEstimateQuery(&http.Request{URL: &url.URL{RawQuery: rawQuery}}, &got)
		want, wantErr := parseEstimateQueryRef(rawQuery)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("parseEstimateQuery error %v, reference error %v", err, wantErr)
		case err == nil:
			if got != want {
				t.Fatalf("parsed %+v, reference %+v", got, want)
			}
		case strings.Contains(wantErr.Error(), "more than once"):
			if !strings.Contains(err.Error(), "more than once") {
				t.Fatalf("parseEstimateQuery error %v, reference error %v", err, wantErr)
			}
		case err.Error() != wantErr.Error():
			t.Fatalf("parseEstimateQuery error %v, reference error %v", err, wantErr)
		}
	})
}
