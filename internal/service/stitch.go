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
	"sync"

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
	peers := s.cluster.Peers()
	if len(peers) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, s.replTimeout)
	defer cancel()
	type peerTrace struct {
		id   string
		recs []traceDoc
		err  error
	}
	results := make(chan peerTrace, len(peers))
	n := 0
	var wg sync.WaitGroup
	for _, p := range peers {
		if p.URL == "" || p.State == cluster.StateDead {
			doc.MissingNodes = append(doc.MissingNodes, p.ID)
			continue
		}
		n++
		wg.Add(1)
		go func(p cluster.PeerInfo) {
			defer wg.Done()
			recs, err := s.fetchPeerTrace(ctx, p, traceID)
			results <- peerTrace{id: p.ID, recs: recs, err: err}
		}(p)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		res := <-results
		if res.err != nil {
			doc.MissingNodes = append(doc.MissingNodes, res.id)
			continue
		}
		doc.Records = append(doc.Records, res.recs...)
	}
	sort.Strings(doc.MissingNodes)
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
