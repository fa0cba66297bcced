package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"epfis/internal/cluster"
)

// TestNonCanonicalFenceRefused: a fence token is accepted only in the one
// form an acknowledgement renders. "a b/c/01/n" names the table "a b" at
// epoch 1 from "n", but an acknowledgement spells that "a%20b/c/1/n", so a
// single estimate and a batch answer it 400 ErrBadFence, while the
// canonical token passes.
func TestNonCanonicalFenceRefused(t *testing.T) {
	n := startCluster(t, 1, 1)[0]
	putIndex(t, n, fitStats(t, "a b", "c", 1))
	estimate := func(fence string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, n.url+"/v1/estimate?table=a%20b&column=c&b=100&sigma=0.1", nil)
		req.Header.Set(cluster.HeaderFence, fence)
		return send(t, n, req)
	}
	batch := func(fence string) (int, string) {
		t.Helper()
		body, err := json.Marshal(BatchRequest{Requests: []EstimateRequest{{Table: "a b", Column: "c", B: 100, Sigma: 0.1}}})
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, n.url+"/v1/estimate/batch", bytes.NewReader(body))
		req.Header.Set(cluster.HeaderFence, fence)
		return send(t, n, req)
	}
	canonical := fenceToken("a b", "c", cluster.Stamp{Epoch: 1, Origin: "n"})
	if canonical != "a%20b/c/1/n" {
		t.Fatalf("fenceToken = %q", canonical)
	}
	for route, send := range map[string]func(string) (int, string){"estimate": estimate, "batch": batch} {
		if status, raw := send("a b/c/01/n"); status != http.StatusBadRequest || !strings.Contains(raw, ErrBadFence.Error()) {
			t.Errorf("%s with fence %q = %d %s, want 400 %v", route, "a b/c/01/n", status, raw, ErrBadFence)
		}
		if status, raw := send(" " + canonical + " "); status != http.StatusOK {
			t.Errorf("%s with fence %q = %d %s, want 200", route, canonical, status, raw)
		}
	}
}

// FuzzParseFence holds parseFence to fenceToken: it never panics, every
// token it accepts is the one fenceToken renders for what it parsed (the
// input with surrounding spaces trimmed), and every (table, column, stamp)
// a write can be acknowledged with round-trips.
func FuzzParseFence(f *testing.F) {
	f.Add("orders/key/7/node-a", "orders", "key", uint64(7), "node-a")
	f.Add(" a%20b/c/1/n ", "a b", "c/d,e", uint64(1<<63), "node,1")
	f.Add("a b/c/01/n", "%", "é\xff", uint64(1), "%zz")
	f.Add("a%2fb/c/1/n", "t", "c", uint64(0), "")
	f.Fuzz(func(t *testing.T, tok, table, column string, epoch uint64, origin string) {
		if pt, pc, ps, err := parseFence(tok); err == nil {
			if got := fenceToken(pt, pc, ps); got != strings.TrimSpace(tok) {
				t.Fatalf("parseFence accepted %q as (%q, %q, %v), which renders %q", tok, pt, pc, ps, got)
			}
		} else if !errors.Is(err, ErrBadFence) {
			t.Fatalf("parseFence(%q) = %v, want ErrBadFence", tok, err)
		}
		if table == "" || column == "" || epoch == 0 || origin == "" {
			return // no acknowledgement names these
		}
		st := cluster.Stamp{Epoch: epoch, Origin: origin}
		tok = fenceToken(table, column, st)
		if pt, pc, ps, err := parseFence(tok); err != nil || pt != table || pc != column || ps != st {
			t.Fatalf("fenceToken(%q, %q, %v) = %q parses to (%q, %q, %v, %v)", table, column, st, tok, pt, pc, ps, err)
		}
	})
}
