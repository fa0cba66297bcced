// Package epfis is the public API of this repository: a complete Go
// implementation of Algorithm EPFIS — "Estimating Page Fetches for Index
// Scans with Finite LRU Buffers" (Swami & Schiefer, VLDB Journal 4(4),
// 1995) — together with the storage engine substrate it runs on and the
// baseline estimators it was evaluated against.
//
// # What EPFIS does
//
// A cost-based query optimizer must predict F, the number of data-page
// fetches an index scan will perform, given B buffer-pool pages managed with
// LRU. For unclustered indexes F depends strongly on B. EPFIS splits the
// problem in two:
//
//   - CollectStats (the paper's Subprogram LRU-Fit) runs once per index at
//     statistics-collection time: one pass over the index's data-page
//     reference trace simulates LRU for every buffer size simultaneously
//     (Mattson stack analysis), fits the resulting full-scan page-fetch
//     curve with six line segments, computes the clustering factor C, and
//     returns a compact catalog entry.
//
//   - Estimate (the paper's Subprogram Est-IO) runs per candidate plan at
//     query-compilation time: it interpolates the stored curve at B, scales
//     by the range-predicate selectivity σ, applies the small-σ heuristic
//     correction, and applies the urn-model reduction for index-sargable
//     predicates. It costs a handful of float operations.
//
// # Quick start
//
//	tbl, ds, _ := epfis.GenerateTable(epfis.SyntheticConfig{
//		Name: "orders", N: 100_000, I: 1_000, R: 40, K: 0.2, Seed: 1,
//	})
//	ix, _ := tbl.Index("key")
//	st, _ := epfis.CollectStatsFromIndex(tbl, "key", epfis.Options{})
//	f, _ := epfis.Estimate(st, 500 /* buffer pages */, 0.05 /* sigma */, 1)
//	_ = f // predicted page fetches for the scan
//	_ = ds
//	_ = ix
//
// See the examples/ directory for runnable end-to-end programs and
// cmd/epfis-experiments for the harness that regenerates every table and
// figure of the paper's evaluation.
package epfis

import (
	"context"
	"net/http"

	"epfis/internal/baselines"
	"epfis/internal/btree"
	"epfis/internal/buffer"
	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/faultnet"
	"epfis/internal/histogram"
	"epfis/internal/join"
	"epfis/internal/lrusim"
	"epfis/internal/optimizer"
	"epfis/internal/resilience"
	"epfis/internal/service"
	"epfis/internal/stats"
	"epfis/internal/storage"
	"epfis/internal/table"
)

// Storage and index substrate.
type (
	// PageID identifies a data page.
	PageID = storage.PageID
	// RID is a record identifier (page, slot).
	RID = storage.RID
	// Table is a heap file plus its B-tree indexes.
	Table = table.Table
	// Index is one B-tree index of a table.
	Index = table.Index
	// TableBuilder constructs tables with caller-controlled record
	// placement.
	TableBuilder = table.Builder
	// Bound is a range-scan endpoint (start/stop condition).
	Bound = btree.Bound
)

// Range-bound constructors for index scans.
var (
	// Ge builds an inclusive lower bound (key >= v).
	Ge = btree.Ge
	// Gt builds an exclusive lower bound (key > v).
	Gt = btree.Gt
	// Le builds an inclusive upper bound (key <= v).
	Le = btree.Le
	// Lt builds an exclusive upper bound (key < v).
	Lt = btree.Lt
)

// LRU simulation.
type (
	// Trace is a data-page reference sequence in index order.
	Trace = lrusim.Trace
	// FetchCurve answers F(B) for any buffer size after one trace pass.
	FetchCurve = lrusim.FetchCurve
)

// EPFIS core.
type (
	// Meta carries the index's table-level statistics (T, N, I).
	Meta = core.Meta
	// Options configures LRU-Fit and Est-IO (segment budget, grid spacing,
	// ablation switches). The zero value is the paper's configuration.
	Options = core.Options
	// Input is one Est-IO request (B, sigma, S).
	Input = core.Input
	// Detail is the full Est-IO result with intermediate terms.
	Detail = core.Estimate
	// IndexStats is the catalog entry LRU-Fit produces.
	IndexStats = stats.IndexStats
	// Catalog stores IndexStats entries and round-trips to JSON.
	Catalog = stats.Catalog
	// CompiledEstimator is an IndexStats pre-validated and flattened for the
	// estimation hot path: EstimateInto computes Est-IO without allocating,
	// bit-identical to EstimateDetailed.
	CompiledEstimator = core.CompiledEstimator
)

// Synthetic data generation.
type (
	// SyntheticConfig parameterizes the clustered-placement generator
	// (N, I, R, Zipf theta, window K, noise, seed).
	SyntheticConfig = datagen.Config
	// Dataset is the logical output of the generator.
	Dataset = datagen.Dataset
)

// Optimizer layer.
type (
	// Optimizer performs access-path selection using Est-IO costing.
	Optimizer = optimizer.Optimizer
	// Query is a single-table retrieval request.
	Query = optimizer.Query
	// Plan is one costed access plan.
	Plan = optimizer.Plan
	// RangePred is a start/stop condition pair.
	RangePred = optimizer.RangePred
	// SargPred is an index-sargable predicate.
	SargPred = optimizer.SargPred
	// Histogram is an equi-depth histogram for selectivity estimation.
	Histogram = histogram.EquiDepth
)

// Baseline estimators (the paper's §3 comparison set).
type (
	// Estimator is the shared estimation interface.
	Estimator = baselines.Estimator
	// Params is a baseline estimation request.
	Params = baselines.Params
)

// AnalyzeTrace runs the one-pass Mattson stack simulation over a page
// reference trace, yielding F(B) for every buffer size.
func AnalyzeTrace(t Trace) *FetchCurve { return lrusim.Analyze(t) }

// CollectStats is Subprogram LRU-Fit: one pass over the full index scan's
// page trace producing the catalog entry Estimate consumes.
func CollectStats(trace Trace, meta Meta, opts Options) (*IndexStats, error) {
	return core.LRUFit(trace, meta, opts)
}

// CollectStatsFromIndex runs LRU-Fit over a materialized table's index.
func CollectStatsFromIndex(tbl *Table, column string, opts Options) (*IndexStats, error) {
	ix, err := tbl.Index(column)
	if err != nil {
		return nil, err
	}
	trace, err := ix.FullScanTrace()
	if err != nil {
		return nil, err
	}
	meta := Meta{
		Table:  tbl.Name,
		Column: column,
		T:      int64(tbl.T()),
		N:      int64(tbl.N()),
		I:      int64(ix.DistinctKeys),
	}
	return core.LRUFit(trace, meta, opts)
}

// Estimate is Subprogram Est-IO: the predicted page-fetch count for an index
// scan with bufferPages LRU pages, start/stop selectivity sigma, and
// index-sargable selectivity s (pass 1 when there are no sargable
// predicates).
func Estimate(st *IndexStats, bufferPages int64, sigma, s float64) (float64, error) {
	return core.EstimateFetches(st, bufferPages, sigma, s)
}

// EstimateDetailed is Estimate with every intermediate term exposed
// (PF_B, the Equation-1 correction, the sargable urn factor).
func EstimateDetailed(st *IndexStats, in Input, opts Options) (Detail, error) {
	return core.EstIO(st, in, opts)
}

// Compile pre-validates and flattens a catalog entry into a
// CompiledEstimator. Build it once per index (the estimation service does
// this per catalog snapshot) and call EstimateInto per candidate plan: the
// per-call path allocates nothing and returns the same results, bit for bit,
// as EstimateDetailed.
func Compile(st *IndexStats, opts Options) (*CompiledEstimator, error) {
	return core.Compile(st, opts)
}

// NewCatalog returns an empty statistics catalog.
func NewCatalog() *Catalog { return stats.NewCatalog() }

// LoadCatalog reads a catalog previously written with Catalog.SaveFile.
func LoadCatalog(path string) (*Catalog, error) { return stats.LoadFile(path) }

// Estimation service layer: a concurrent versioned catalog store plus the
// HTTP JSON API that serves Est-IO at query-compilation QPS
// (cmd/epfis-serve is the standalone binary).
type (
	// CatalogStore is the concurrent copy-on-write statistics store:
	// lock-free snapshot reads, serialized writers, write-ahead-logged file
	// persistence, and generation counters.
	CatalogStore = catalog.Store
	// CatalogSnapshot is an immutable point-in-time view of a CatalogStore.
	CatalogSnapshot = catalog.Snapshot
	// Service is the estimation HTTP service (GET /v1/estimate,
	// POST /v1/estimate/batch, catalog management, /healthz, /metrics).
	Service = service.Server
	// ServiceConfig configures NewService.
	ServiceConfig = service.Config
	// ServiceClient is the retrying HTTP client for the estimation service:
	// transport errors and 429/503 responses retry with backoff, honoring
	// the server's Retry-After header.
	ServiceClient = service.Client
	// ServiceClientConfig configures NewServiceClient.
	ServiceClientConfig = service.ClientConfig
	// ServiceHealth is the /healthz document.
	ServiceHealth = service.Health
	// RetryPolicy tunes retry attempts, backoff, and jitter for
	// ServiceClient (and is reusable standalone via internal/resilience).
	RetryPolicy = resilience.RetryPolicy
)

// Cluster layer: coordinator-free sharding of the estimation service across
// nodes — consistent-hash ownership, heartbeat/gossip membership, and
// stamp-ordered catalog anti-entropy (see internal/cluster and the README's
// "Running a cluster" section).
type (
	// ClusterNode is the per-process cluster agent: ring, membership,
	// gossip, and catalog anti-entropy. Pass it to ServiceConfig.Cluster.
	ClusterNode = cluster.Node
	// ClusterNodeConfig configures NewClusterNode.
	ClusterNodeConfig = cluster.Config
	// ClusterRing is the immutable consistent-hash ring (virtual nodes,
	// deterministic R-way replica sets).
	ClusterRing = cluster.Ring
	// ClusterClient spreads estimates over the cluster's members, starting
	// each key at the member its hash picks, with hedging, failover and
	// per-node breakers.
	ClusterClient = service.ClusterClient
	// ClusterClientConfig configures NewClusterClient.
	ClusterClientConfig = service.ClusterClientConfig
)

// NewClusterNode builds the cluster agent for one estimation-service
// process. Start its gossip loop with Run and pass it to NewService via
// ServiceConfig.Cluster.
func NewClusterNode(cfg ClusterNodeConfig) (*ClusterNode, error) {
	return cluster.NewNode(cfg)
}

// NewClusterClient builds the cluster-aware client over a seed list of node
// URLs.
func NewClusterClient(cfg ClusterClientConfig) (*ClusterClient, error) {
	return service.NewClusterClient(cfg)
}

// WithFence returns a context whose ClusterClient and ServiceClient reads
// carry the fence tokens of cluster PUT and DELETE acknowledgements: a node
// that has not applied a fenced write refuses instead of answering.
func WithFence(ctx context.Context, tokens ...string) context.Context {
	return service.WithFence(ctx, tokens...)
}

// BuildClusterRing constructs a consistent-hash ring over member IDs —
// exposed for tooling that needs to predict placement offline.
func BuildClusterRing(members []string, vnodes int) *ClusterRing {
	return cluster.BuildRing(members, vnodes)
}

// Deterministic network fault injection for partition drills (see
// internal/faultnet and the README's "Partition tolerance & durable
// ingestion" section): a NetFaultInjector plugs into ClusterNodeConfig's
// HTTPClient and ServiceConfig's Transport so test harnesses can drop,
// reset, slow, or truncate any cluster hop — or partition whole peers —
// reproducibly from a seed.
type (
	// NetFaultInjector is the http.RoundTripper that injects faults.
	NetFaultInjector = faultnet.Injector
	// NetFaultRule matches one (op, peer, route) and names the fault mode.
	NetFaultRule = faultnet.Rule
)

// NewNetFaultInjector builds a network fault injector over inner (nil uses
// the default transport), deterministic from seed.
func NewNetFaultInjector(inner http.RoundTripper, seed int64) *NetFaultInjector {
	return faultnet.NewInjector(inner, seed)
}

// ParseNetFaultRules parses the compact rule grammar
// "op:peer:route:nth:mode[:count]" — the same specs the EPFIS_NET_FAULTS
// environment knob accepts.
func ParseNetFaultRules(spec string) ([]NetFaultRule, error) {
	return faultnet.ParseRules(spec)
}

// NewCatalogStore returns an empty in-memory concurrent catalog store.
func NewCatalogStore() *CatalogStore { return catalog.NewStore() }

// OpenCatalogStore binds a concurrent catalog store to a catalog file,
// loading it when present; writes append to a group-committed log beside it
// (<path>.wal) and periodically checkpoint into the file, retaining the
// previous checkpoint. A file written outside the store (`epfis gen`) is
// adopted whole. A corrupt or truncated file is recovered from the previous
// checkpoint and the log when they exist; CatalogStore.Recovered reports
// when that happened. Close the store to checkpoint and release the log.
func OpenCatalogStore(path string) (*CatalogStore, error) {
	return catalog.OpenWAL(path, catalog.WALOptions{})
}

// NewService builds the estimation HTTP service over a catalog store.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// NewServiceClient builds the retrying client for a running estimation
// service.
func NewServiceClient(cfg ServiceClientConfig) (*ServiceClient, error) {
	return service.NewClient(cfg)
}

// Typed Est-IO input-validation sentinels. Each wraps ErrBadInput, so
// errors.Is(err, ErrBadInput) matches any of them; the estimation service
// maps them to HTTP 400.
var (
	// ErrBadInput is the umbrella sentinel for invalid estimation inputs.
	ErrBadInput = core.ErrBadInput
	// ErrBadBuffer reports a buffer page count B < 1.
	ErrBadBuffer = core.ErrBadBuffer
	// ErrBadSigma reports a start/stop selectivity outside [0, 1].
	ErrBadSigma = core.ErrBadSigma
	// ErrBadSarg reports a sargable selectivity outside (0, 1].
	ErrBadSarg = core.ErrBadSarg
	// ErrStatsNotFound reports a catalog lookup miss.
	ErrStatsNotFound = stats.ErrNotFound
)

// GenerateTable builds a synthetic table (real heap pages + B-tree index)
// with the paper's window-clustering placement model, returning both the
// materialized table and the logical dataset.
func GenerateTable(cfg SyntheticConfig) (*Table, *Dataset, error) {
	return datagen.Generate(cfg)
}

// GenerateDataset builds only the logical placement (keys + page trace),
// which is sufficient for estimation experiments and much cheaper at large N.
func GenerateDataset(cfg SyntheticConfig) (*Dataset, error) {
	return datagen.GenerateDataset(cfg)
}

// NewOptimizer creates an access-path optimizer over a statistics catalog.
func NewOptimizer(catalog *Catalog) (*Optimizer, error) {
	return optimizer.New(catalog)
}

// BuildHistogram constructs a compressed equi-depth histogram for
// selectivity estimation.
func BuildHistogram(values []int64, buckets int) (*Histogram, error) {
	return histogram.Build(values, buckets)
}

// Baselines returns the paper's comparison estimators that need no
// statistics pass (ML plus the classical formulas). The cluster-ratio
// algorithms (DC, SD, OT) require a statistics scan; use CollectScanStats.
func Baselines() []Estimator {
	return []Estimator{
		baselines.ML{},
		baselines.Cardenas{},
		baselines.Yao{},
		baselines.NaiveClustered{},
		baselines.NaiveUnclustered{},
	}
}

// ScanStats is the statistics record the cluster-ratio baselines collect.
type ScanStats = baselines.ScanStats

// CollectScanStats runs the cluster-ratio baselines' statistics pass over
// the index entries (keys and the matching page trace, in key order).
func CollectScanStats(keys []int64, trace Trace) (ScanStats, error) {
	return baselines.Collect(keys, trace)
}

// ClusterRatioBaselines returns DC, SD, and OT bound to a statistics record.
func ClusterRatioBaselines(ss ScanStats) []Estimator {
	return []Estimator{
		baselines.DC{Stats: ss},
		baselines.SD{Stats: ss},
		baselines.OT{Stats: ss},
	}
}

// Join layer (the Mackert-Lohman setting: inner index scans of nested-loop
// joins).
type (
	// JoinResult summarizes an executed index nested-loop join.
	JoinResult = join.Result
	// JoinOuterOrder selects the outer streaming order (ByKey / ByHeap).
	JoinOuterOrder = join.OuterOrder
)

// Join outer-order constants.
const (
	// JoinByKey streams the outer relation in join-key order.
	JoinByKey = join.ByKey
	// JoinByHeap streams the outer relation in physical page order.
	JoinByHeap = join.ByHeap
)

// IndexNestedLoopJoin executes outer JOIN inner ON the named columns,
// measuring inner data-page fetches through the pool.
func IndexNestedLoopJoin(outer *Table, outerCol string, inner *Table, innerCol string, order JoinOuterOrder, pool BufferPool) (JoinResult, error) {
	return join.IndexNestedLoop(outer, outerCol, inner, innerCol, order, pool)
}

// BufferPool is the page-access interface scans run through.
type BufferPool = buffer.Pool

// LRUPool is the strict least-recently-used buffer pool — the policy the
// paper's model assumes.
type LRUPool = buffer.LRU

// NewLRUPool creates an LRU buffer pool with the given number of frames over
// a table's page store.
func NewLRUPool(tbl *Table, frames int) (*LRUPool, error) {
	return buffer.NewLRU(tbl.Store, frames)
}
