GO ?= go

.PHONY: build test race chaos chaos-net cluster-check check-gates check-docs mutants bench bench-json bench-serve bench-ingest bench-cluster bench-smoke e2e-smoke fuzz obs-check serve vet all

all: build vet test

build:
	$(GO) build ./...

# gofmt -l prints every file whose formatting drifts; any output fails.
vet:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-test the concurrent subsystems (catalog store + estimation service,
# the framed log under every journal, plus the mergeable incremental
# simulator the ingest worker feeds).
race:
	$(GO) test -race ./internal/catalog/... ./internal/cluster/... ./internal/framelog/ ./internal/lrusim/... ./internal/service/... ./cmd/epfis-serve/...

# Resilience drills under the race detector: fault injection on every catalog
# write path mid-traffic (including WAL append/fsync/checkpoint faults under
# concurrent ingest + readers), an anti-entropy merge beside an acknowledged
# write and the stamp gate beside a pending merge, stamp durability across
# reopen, rotation, .prev recovery and a torn tail, stamped reloads and
# their cluster-wide refresh, commit-abort and recovery invariants, overload
# shedding, breaker/degraded behaviour, plus recovery fuzz smokes for both the
# checkpoint file and the WAL log, a fuzz pass over the journal frame
# decoder every log replays through, differential fuzz passes holding the
# batch body decoder to encoding/json and the estimate query parser to
# net/url, a fuzz pass over the exposition parser federation feeds peer
# bytes to, round-trip fuzz passes over the two decoders every push and
# pull feeds peer bytes to: the entry stream (a merge of any accepted stream
# never moves a stamp back) and the digest document with its stamp text (no
# accepted epoch reaches the peer bound), and differential fuzz passes over
# the serving path: the compiled estimator held bit-exact to EstIO, and the
# hand-rolled response encoder held to encoding/json, and a round-trip fuzz
# pass over the fence parser (it accepts only tokens fenceToken renders).
# Every fuzz pass runs through scripts/fuzz-pass.sh, which fails it when its
# final exec count is below the floor beside it (a quarter of the lowest of
# three runs on a 2-vCPU host); -fuzzminimizetime=50x bounds Go's input
# minimizer, whose default 60 s, spent without reporting execs, can stall a
# 20-s pass.
chaos:
	$(GO) test -race ./internal/faultfs/ ./internal/resilience/
	$(GO) test -race -run 'TestChaos|TestOverload|TestDeleted|TestHealthz|TestCommitAborts|TestFsync|TestOpenRecovers|TestReload|TestWAL' \
		./internal/catalog/ ./internal/service/
	bash scripts/fuzz-pass.sh 3008 $(GO) test -run=Fuzz -fuzz=FuzzOpenCatalogStore -fuzztime=20s -fuzzminimizetime=50x ./internal/catalog/
	bash scripts/fuzz-pass.sh 5804 $(GO) test -run=Fuzz -fuzz=FuzzWALRecovery -fuzztime=20s -fuzzminimizetime=50x ./internal/catalog/
	bash scripts/fuzz-pass.sh 286559 $(GO) test -run=Fuzz -fuzz=FuzzScan -fuzztime=20s -fuzzminimizetime=50x ./internal/framelog/
	bash scripts/fuzz-pass.sh 40403 $(GO) test -run=Fuzz -fuzz=FuzzDecodeBatchBody -fuzztime=20s -fuzzminimizetime=50x ./internal/service/
	bash scripts/fuzz-pass.sh 47518 $(GO) test -run=Fuzz -fuzz=FuzzParseEstimateQuery -fuzztime=20s -fuzzminimizetime=50x ./internal/service/
	bash scripts/fuzz-pass.sh 182132 $(GO) test -run=Fuzz -fuzz=FuzzParseExposition -fuzztime=20s -fuzzminimizetime=50x ./internal/obs/
	bash scripts/fuzz-pass.sh 155931 $(GO) test -run=Fuzz -fuzz=FuzzDecodeEntries -fuzztime=20s -fuzzminimizetime=50x ./internal/catalog/
	bash scripts/fuzz-pass.sh 46306 $(GO) test -run=Fuzz -fuzz=FuzzDigestDoc -fuzztime=20s -fuzzminimizetime=50x ./internal/cluster/
	bash scripts/fuzz-pass.sh 131974 $(GO) test -run=Fuzz -fuzz=FuzzCompiledEquivalence -fuzztime=20s -fuzzminimizetime=50x ./internal/core/
	bash scripts/fuzz-pass.sh 37537 $(GO) test -run=Fuzz -fuzz=FuzzEncodeEstimateResponse -fuzztime=20s -fuzzminimizetime=50x ./internal/service/
	bash scripts/fuzz-pass.sh 43915 $(GO) test -run=Fuzz -fuzz=FuzzParseFence -fuzztime=20s -fuzzminimizetime=50x ./internal/service/

# Network partition drills under the race detector: the deterministic fault
# injector itself, then the jepsen-lite convergence drill — partition a 3-node
# cluster while both sides take writes and ingest, heal, and require every
# node to converge to one catalog hash with bit-exact estimates — plus the
# push stamp guard (an older push after a newer tombstone is skipped), the
# ingest-routing, read-fence, and WAL ingest-journal crash-replay proofs,
# and the restart drills: a 503'd write reaches its peer
# after the sender restarts from its WAL files, a delete tombstone replayed
# from the WAL keeps a pull from resurrecting the key, an in-memory node
# re-learns every key and tombstone after a restart, concurrent pulls from
# both ends deliver every partitioned write, and reloads and a file adopted
# at open reach every peer.
chaos-net:
	$(GO) test -race ./internal/faultnet/
	$(GO) test -race -run 'TestClusterPartition|TestAsymmetricPartition|TestReplicatedDeleteEpochGuard|TestAckedWriteReachesPeerAfterSenderRestart|TestClusterIngestOwnership|TestIngestJournal|TestDeleteTombstoneSurvivesRestart|TestInMemoryNodeRelearnsKeysAfterRestart|TestConcurrentSyncsDeliverEveryWrite|TestReloadRefreshReachesEveryPeer|TestReloadDropDeletesOnEveryPeer|TestAdoptionAtOpenReachesEveryPeer' \
		./internal/service/
	$(GO) test -race -run 'TestWALIngestJournal' ./internal/catalog/

# Service throughput: single estimates vs 64-plan batches, 1 and 4 cores.
bench:
	$(GO) test -bench=ServiceEstimate -cpu 1,4 -run=NONE ./cmd/epfis-serve/

# The bench-* targets run each perf gate as a named go test (-count=1, so a
# cached pass never stands in for a measurement), then the go test
# benchmarks of the same paths. The end-to-end and per-layer figures over
# real sockets come from bench/ (make e2e-smoke; bench/README.md).

# Experiment engine: all 34 experiments byte-identical at -parallel 1 and 4,
# then the pooled simulator (a clustered and a random-placement 100k-ref
# trace, against the fresh-structures tree simulator), Measure, warm-cache
# sweep and full-suite benchmarks.
bench-json:
	$(GO) test -count=1 -run '^TestEngineDeterministicAcrossParallelism$$' ./internal/experiment/
	$(GO) test -run=NONE -bench='ScratchAnalyze|TreeAnalyzeLegacy' -benchmem ./internal/lrusim/
	$(GO) test -run=NONE -bench=Measure200Scans -benchmem ./internal/workload/
	$(GO) test -run=NONE -bench='ErrorSweep|EngineSuite' -benchmem ./internal/experiment/

# Serving path: the allocation budgets (single estimate <= 8 allocs/op,
# 64-plan batch <= 64, traced and cold variants included), then the
# handler-level single/cache-hit/cache-miss/batch64/parallel benchmarks.
bench-serve:
	$(GO) test -count=1 -run '^TestAllocBudget(Single|Batch64)' ./internal/service/
	$(GO) test -run=NONE -bench=ServiceEstimate -benchmem ./cmd/epfis-serve/

# Ingestion path: WAL group commit at least 10x a rename-per-commit rewrite
# and at most 0.5 durability barriers per commit, a single-key commit in a
# 1,024-key store (unstamped and stamped) allocating at most 1.5x one clone
# of a 1,024-entry map, Accum.Feed at most 2 amortized allocs per
# 512-reference batch, an Accum's retained memory bounded by distinct pages
# (the same after 1M references over 2,500 pages as after 100k, at most
# 64 B per page plus 16 KiB), then the Feed/Merge benchmarks.
bench-ingest:
	$(GO) test -count=1 -v -run '^(TestWALGroupCommitSpeedup|TestSingleKeyCommitCopiesOneMap)$$' ./internal/catalog/
	$(GO) test -count=1 -v -run '^(TestAccumFeedSteadyStateAllocs|TestAccumMemoryBoundedByDistinctPages)$$' ./internal/lrusim/
	$(GO) test -run=NONE -bench='AccumFeed|AccumMerge' -benchmem ./internal/lrusim/

# Cluster data plane, over in-process nodes: an estimate at a non-owner
# allocates no more than at an owner (nor an owner more than a single node),
# a quorum PUT acks without waiting for a slowed owner straggler, and with a
# 40 ms-slowed non-owner stays within 2x the no-fault median, a pull of a
# 1-key divergence in a 64-entry catalog moves at most 10% of the bytes of
# the trailered catalog, and 16 writers' PUTs of distinct keys through one
# WAL-backed node share group commits: at most 0.5 durability barriers per
# commit.
bench-cluster:
	$(GO) test -count=1 -v -run '^(TestAllocBudgetClusterEstimate|TestClusterQuorumFastAck.*|TestClusterDeltaOneKeyWireCost|TestClusterPutGroupCommit)$$' ./internal/service/

# One-iteration pass over the perf-relevant benchmarks, as run in CI.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/lrusim/ ./internal/workload/ ./internal/experiment/

# End-to-end harness smoke: bench/ is its own module (epfis/bench), so
# neither `go test ./...` nor the targets above build it. A 0.5 s run of all
# four loopback workloads plus the harness's own tests catch a service API
# change that would break the benchmark. See bench/README.md.
e2e-smoke:
	bash bench/run.sh -smoke
	cd bench && $(GO) test ./...

# Cluster drills under the race detector, each over in-process nodes on
# loopback sockets: replicated install with bit-exact serving from every node
# (owner and non-owner alike), a fresh node adopting the whole catalog, a
# one-key pull, partition and heal to one catalog hash, a node killed under
# load with the survivors staying bit-exact, and two scans streamed
# round-robin over three nodes at R = 2 reaching one ingest home, so every
# node serves the offline LRU-Fit bit-exactly. See README "Running a
# cluster".
cluster-check:
	$(GO) test -race -run '^(TestClusterReplicationAndBitExactServing|TestClusterFreshNodeAdoptsCatalog|TestClusterDeltaOneKeyWireCost|TestClusterPartitionHealConvergence|TestClusterChaosKillNodeUnderLoad|TestClusterIngestOneHomePerKey)$$' \
		./internal/service/

# go test -run passes silently when its pattern matches no test, and
# go test -fuzz when its name matches no fuzz test, so a renamed or deleted
# test would turn its gate into a no-op: fail when any pattern the drill,
# fuzz and bench-* targets run names no test (go test -list).
check-gates:
	bash scripts/check-gates.sh

# README.md must name every flag `epfis-serve -h` prints and every route the
# service mounts (method and path), so neither ships undocumented.
check-docs:
	bash scripts/check-docs.sh

# Mutation gate: each patch under scripts/mutants/ plants one bug in a copy
# of the tree and names the test that must fail on it. A mutant that
# survives, no longer applies, or names a test that does not exist fails
# the target; the working tree is never touched.
mutants:
	bash scripts/mutants.sh

# Observability smoke: spin up a live service instance and check the
# Prometheus exposition /metrics answers (run through the obs package's
# strict parser), /debug/traces span breakdowns, traceparent echo, and the
# /healthz build-info fields, all over real HTTP. Point it at a
# running instance instead with `go run ./cmd/epfis-obscheck -addr
# localhost:8080`. Then the cluster surfaces, over in-process nodes on
# loopback sockets: a quorum PUT's trace stitched across all three nodes
# (with a slowed owner, too), the federated exposition, and accuracy
# telemetry from a streamed scan reaching it.
obs-check:
	$(GO) run ./cmd/epfis-obscheck
	$(GO) test -count=1 -run '^(TestStitchAcrossClusterIdentifiesSlowOwner|TestClusterMetricsFederation|TestClusterObservabilityPlane)$$' ./internal/service/

# Short fuzz passes: catalog JSON format, and store recovery from corrupt
# catalog files (run one at a time; go fuzzing allows one -fuzz per package),
# each held to an exec floor like make chaos's.
fuzz:
	bash scripts/fuzz-pass.sh 248632 $(GO) test -run=Fuzz -fuzz=FuzzCatalogRoundTrip -fuzztime=30s -fuzzminimizetime=50x ./internal/stats/
	bash scripts/fuzz-pass.sh 4068 $(GO) test -run=Fuzz -fuzz=FuzzOpenCatalogStore -fuzztime=30s -fuzzminimizetime=50x ./internal/catalog/

# Collect statistics for a demo index if needed, then serve it.
serve:
	@test -f catalog.json || $(GO) run ./cmd/epfis gen -out catalog.json -n 100000 -i 1000 -k 0.2
	$(GO) run ./cmd/epfis-serve -addr :8080 -catalog catalog.json
