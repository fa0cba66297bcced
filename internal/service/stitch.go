package service

// Cross-node trace stitching: GET /debug/traces/{traceid} on any node
// returns every record of one trace — served requests and cluster hops —
// merged across the whole cluster and ordered by start time. A slow quorum
// PUT shows up as the coordinator's replicate hops with one straggling peer;
// a forwarded ingest batch as the non-owner's forward hop parented under the
// client's span next to the owner's served request.
//
// The fan-out is one concurrent GET per live peer with ?local=1 (peers
// answer from their own ring only — no recursion), bounded by the
// replication timeout. A peer that cannot answer inside the bound is
// reported honestly in missing_nodes rather than stalling the stitch.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"epfis/internal/cluster"
	"epfis/internal/obs"
)

// routeTrace serves one stitched trace. Registered alongside routeTraces in
// both single-node and cluster mode (single-node stitches are just the local
// ring's view).
const routeTrace = "GET /debug/traces/{traceid}"

// stitchDoc is the GET /debug/traces/{traceid} document.
type stitchDoc struct {
	Trace        string     `json:"trace"`
	Nodes        []string   `json:"nodes"`
	MissingNodes []string   `json:"missing_nodes,omitempty"`
	Records      []traceDoc `json:"records"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	o := s.obs
	if o.ring == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	raw := r.PathValue("traceid")
	id, ok := obs.ParseTraceID(raw)
	if !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("malformed trace id %q: want 32 lowercase hex digits", raw))
		return
	}
	doc := stitchDoc{Trace: raw, Records: []traceDoc{}}
	node := s.nodeName()
	for _, rec := range o.ring.FindByTrace(id) {
		doc.Records = append(doc.Records, traceDocOf(rec, node))
	}
	if s.cluster != nil && r.URL.Query().Get("local") != "1" {
		s.stitchPeers(r.Context(), raw, &doc)
	}
	sort.SliceStable(doc.Records, func(i, j int) bool {
		return doc.Records[i].Start.Before(doc.Records[j].Start)
	})
	seen := map[string]bool{}
	for _, rec := range doc.Records {
		if rec.Node != "" && !seen[rec.Node] {
			seen[rec.Node] = true
			doc.Nodes = append(doc.Nodes, rec.Node)
		}
	}
	sort.Strings(doc.Nodes)
	writeJSON(w, http.StatusOK, doc)
}

// stitchPeers fans the trace query out to every live peer concurrently and
// merges the answers into doc. Peers that are dead, unreachable, or slower
// than the replication timeout land in missing_nodes.
func (s *Server) stitchPeers(ctx context.Context, traceID string, doc *stitchDoc) {
	answers, missing := fanOut(ctx, s, func(ctx context.Context, p cluster.PeerInfo) ([]traceDoc, error) {
		return s.fetchPeerTrace(ctx, p, traceID)
	})
	for _, a := range answers {
		doc.Records = append(doc.Records, a.val...)
	}
	doc.MissingNodes = missing
}

// peerAnswer is one peer's answer to a fan-out.
type peerAnswer[T any] struct {
	peer string
	val  T
}

// fanOut is the one peer fan-out of the cluster-wide observability routes:
// it calls fetch concurrently, one goroutine per peer, on every peer with a
// URL that this node does not hold dead, under ctx bounded by the
// replication timeout. It returns the answers sorted by peer ID, and the
// IDs, sorted, of the peers it skipped or whose fetch failed.
func fanOut[T any](ctx context.Context, s *Server, fetch func(context.Context, cluster.PeerInfo) (T, error)) (answers []peerAnswer[T], missing []string) {
	peers := s.cluster.Peers()
	ctx, cancel := context.WithTimeout(ctx, s.replTimeout)
	defer cancel()
	type result struct {
		peerAnswer[T]
		err error
	}
	results := make(chan result, len(peers))
	n := 0
	for _, p := range peers {
		if p.URL == "" || p.State == cluster.StateDead {
			missing = append(missing, p.ID)
			continue
		}
		n++
		go func(p cluster.PeerInfo) {
			v, err := fetch(ctx, p)
			results <- result{peerAnswer[T]{p.ID, v}, err}
		}(p)
	}
	for i := 0; i < n; i++ {
		res := <-results
		if res.err != nil {
			missing = append(missing, res.peer)
			continue
		}
		answers = append(answers, res.peerAnswer)
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].peer < answers[j].peer })
	sort.Strings(missing)
	return answers, missing
}

// fetchPeerTrace asks one peer for its local view of the trace.
func (s *Server) fetchPeerTrace(ctx context.Context, p cluster.PeerInfo, traceID string) ([]traceDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		p.URL+"/debug/traces/"+traceID+"?local=1", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(cluster.HeaderNode, s.cluster.SelfID())
	resp, err := s.proxyHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: status %d", p.ID, resp.StatusCode)
	}
	var doc stitchDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Records, nil
}
