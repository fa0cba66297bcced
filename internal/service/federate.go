package service

// Metrics federation: GET /v1/cluster/metrics scrapes every live peer's
// Prometheus exposition concurrently, re-emits each sample with a per-node
// label, and appends cluster-level rollups under node="cluster" — counter
// sums and histogram bucket merges (via obs.HistogramSnapshot.Merge), so one
// scrape answers both "which node" and "how is the cluster doing". Gauges
// stay per-node: summing generations or queue depths across nodes would be
// meaningless.
//
// The output is a single valid exposition (obs.ParseExposition accepts it):
// one HELP/TYPE per family in first-seen order, per-node samples, then the
// rollups, then epfis_federation_peer_up marking which nodes answered the
// scrape. Peers that cannot answer inside the replication timeout, or whose
// exposition does not parse, are reported as down rather than stalling or
// corrupting the scrape.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"

	"epfis/internal/cluster"
	"epfis/internal/obs"
)

// routeClusterMetrics serves the federated exposition. Cluster mode only.
const routeClusterMetrics = "GET /v1/cluster/metrics"

// maxFederatedBody bounds one peer's scraped exposition.
const maxFederatedBody = 8 << 20

// nodeExposition is one node's parsed exposition.
type nodeExposition struct {
	node string
	fams []obs.ExpoFamily
}

func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	self := s.cluster.SelfID()
	local, err := obs.ParseExposition(s.obs.reg.AppendText(nil))
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("render local metrics: %w", err))
		return
	}
	expos := []nodeExposition{{node: self, fams: local}}
	up := map[string]float64{self: 1}

	answers, missing := fanOut(r.Context(), s, s.scrapePeerMetrics)
	for _, a := range answers {
		up[a.peer] = 1
		expos = append(expos, nodeExposition{node: a.peer, fams: a.val})
	}
	for _, id := range missing {
		up[id] = 0
	}

	body := renderFederated(expos, up)
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// scrapePeerMetrics fetches and parses one peer's Prometheus exposition.
func (s *Server) scrapePeerMetrics(ctx context.Context, p cluster.PeerInfo) ([]obs.ExpoFamily, error) {
	// Every release answers /metrics with the exposition, whatever the
	// query; ?format=prom stays for a peer still on an older release during
	// an upgrade, where it selects the exposition over a JSON default.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/metrics?format=prom", nil)
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
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFederatedBody))
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(body)
}

// nodeSamples is one node's contribution to a family.
type nodeSamples struct {
	node    string
	samples []obs.ExpoSample
	hists   []obs.ExpoHistogram
}

// famAgg accumulates one family across the cluster.
type famAgg struct {
	name    string
	typ     string
	help    string
	perNode []nodeSamples
}

// renderFederated merges per-node expositions into one: families in
// first-seen order, every sample re-labelled with its node, rollups under
// node="cluster", and the peer-up gauge last.
func renderFederated(expos []nodeExposition, up map[string]float64) []byte {
	var order []string
	agg := map[string]*famAgg{}
	for _, ne := range expos {
		for _, f := range ne.fams {
			a := agg[f.Name]
			if a == nil {
				a = &famAgg{name: f.Name, typ: f.Type, help: f.Help}
				agg[f.Name] = a
				order = append(order, f.Name)
			}
			if a.typ == "" {
				a.typ = f.Type
			}
			if a.help == "" {
				a.help = f.Help
			}
			if len(f.Samples) > 0 {
				a.perNode = append(a.perNode, nodeSamples{node: ne.node, samples: f.Samples, hists: f.Histograms})
			}
		}
	}
	var dst []byte
	for _, name := range order {
		a := agg[name]
		dst = appendFamilyHeader(dst, a.name, a.help, a.typ)
		for _, ns := range a.perNode {
			for _, smp := range ns.samples {
				dst = obs.AppendSample(dst, smp.Name,
					withLabel(smp.Labels, "node", ns.node), smp.Value)
			}
		}
		switch a.typ {
		case "counter":
			dst = appendCounterRollup(dst, a)
		case "histogram":
			dst = appendHistogramRollup(dst, a)
		}
	}
	dst = appendFamilyHeader(dst, "epfis_federation_peer_up",
		"1 when the node answered the federated metrics scrape, 0 when it did not.", "gauge")
	nodes := make([]string, 0, len(up))
	for node := range up {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		dst = obs.AppendSample(dst, "epfis_federation_peer_up",
			[]obs.Label{{Name: "node", Value: node}}, up[node])
	}
	return dst
}

// appendFamilyHeader emits the HELP/TYPE comments for one family.
func appendFamilyHeader(dst []byte, name, help, typ string) []byte {
	if help != "" {
		dst = append(dst, "# HELP "...)
		dst = append(dst, name...)
		dst = append(dst, ' ')
		dst = append(dst, help...)
		dst = append(dst, '\n')
	}
	if typ != "" {
		dst = append(dst, "# TYPE "...)
		dst = append(dst, name...)
		dst = append(dst, ' ')
		dst = append(dst, typ...)
		dst = append(dst, '\n')
	}
	return dst
}

// withLabel returns labels plus one more, without mutating the input.
func withLabel(labels []obs.Label, name, value string) []obs.Label {
	out := make([]obs.Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, obs.Label{Name: name, Value: value})
}

// appendCounterRollup sums counter series with identical label sets across
// nodes and emits one node="cluster" sample per set.
func appendCounterRollup(dst []byte, a *famAgg) []byte {
	type group struct {
		labels []obs.Label
		sum    float64
	}
	var order []string
	groups := map[string]*group{}
	for _, ns := range a.perNode {
		for _, smp := range ns.samples {
			k := smp.CanonicalLabels()
			g := groups[k]
			if g == nil {
				g = &group{labels: smp.Labels}
				groups[k] = g
				order = append(order, k)
			}
			g.sum += smp.Value
		}
	}
	for _, k := range order {
		g := groups[k]
		dst = obs.AppendSample(dst, a.name, withLabel(g.labels, "node", "cluster"), g.sum)
	}
	return dst
}

// appendHistogramRollup merges each label set's decoded histogram series
// bucket-wise across nodes and renders the merged snapshots under
// node="cluster". A label set whose bounds disagree across nodes (mixed
// binary versions) is skipped rather than merged wrongly.
func appendHistogramRollup(dst []byte, a *famAgg) []byte {
	type group struct {
		labels []obs.Label
		snap   obs.HistogramSnapshot
		bad    bool
	}
	var order []string
	groups := map[string]*group{}
	for _, ns := range a.perNode {
		for _, h := range ns.hists {
			k := h.CanonicalLabels()
			g := groups[k]
			if g == nil {
				snap := h.HistogramSnapshot
				snap.Counts = append([]uint64(nil), snap.Counts...) // Merge adds into it
				groups[k] = &group{labels: h.Labels, snap: snap}
				order = append(order, k)
				continue
			}
			if err := g.snap.Merge(h.HistogramSnapshot); err != nil {
				g.bad = true
			}
		}
	}
	for _, k := range order {
		if g := groups[k]; !g.bad {
			dst = g.snap.AppendText(dst, a.name, withLabel(g.labels, "node", "cluster"))
		}
	}
	return dst
}
