// Command epfis-serve runs the estimation service: the statistics catalog
// plus Subprogram Est-IO behind an HTTP JSON API, so query optimizers can
// cost candidate index-scan plans over the network at high QPS.
//
//	epfis-serve -addr :8080 -catalog catalog.json
//
// The catalog file is the same JSON format `epfis gen` writes. A missing
// file starts the service empty; statistics can then be installed with
// PUT /v1/indexes/{table}/{column}. Every install is group-committed to a
// write-ahead log beside the file (<catalog>.wal, or in -wal-dir) and
// checkpointed back into the file every -checkpoint-every commits and at
// shutdown. POST /v1/reload picks up a catalog refreshed out-of-process (an
// LRU-Fit rerun) without restarting; a restart picks it up too.
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests. Overload and persistence-failure behaviour is tunable with
// -max-inflight and -breaker-* (see the README's "Resilience & operations"
// section). -pprof-addr serves net/http/pprof on a separate listener for
// live profiling (off by default; see the README's "Performance" section).
//
// Observability (see the README's "Observability" section): lifecycle and
// degradation events are structured log/slog records shaped by -log-level
// and -log-format; GET /metrics serves the Prometheus text exposition to
// every request (there is no JSON form); GET /debug/traces exposes a ring of
// recent request traces sized with -trace-ring, with requests at or above
// -slow-trace flagged slow.
//
// The EPFIS_FAULTS / EPFIS_FAULT_SEED environment variables
// arm deterministic filesystem fault injection for chaos drills:
//
//	EPFIS_FAULTS='sync:catalog:3:error' epfis-serve -catalog catalog.json
//
// EPFIS_NET_FAULTS / EPFIS_NET_FAULT_SEED do the same for the network: the
// rules (see faultnet.ParseRules for the grammar) sit on every outbound
// cluster hop — gossip, anti-entropy, replication, forwarding — and on
// inbound accepts, so partition and flaky-link drills are reproducible:
//
//	EPFIS_NET_FAULTS='request:10.0.0.2:*:3:drop' epfis-serve -cluster-seeds ...
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/faultfs"
	"epfis/internal/faultnet"
	"epfis/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "epfis-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("epfis-serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		path     = fs.String("catalog", "catalog.json", "statistics catalog file (created on first install if missing)")
		memory   = fs.Bool("in-memory", false, "run without a catalog file (no persistence, no reload)")
		cache    = fs.Int("cache", service.DefaultCacheEntries, "Est-IO memo cache entries, single estimates only (negative disables)")
		timeout  = fs.Duration("timeout", service.DefaultRequestTimeout, "per-request timeout (negative disables)")
		maxBatch = fs.Int("max-batch", service.DefaultMaxBatch, "maximum inputs per batch request")
		quiet    = fs.Bool("quiet", false, "suppress lifecycle logging")
		pprof    = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		maxInflight = fs.Int("max-inflight", service.DefaultMaxInflight,
			"concurrent requests admitted per route before shedding with 429 (negative disables)")
		breakerFailures = fs.Int("breaker-failures", 0,
			"consecutive persistence failures that open the circuit breaker (0 = default, negative disables)")
		breakerCooldown = fs.Duration("breaker-cooldown", 0,
			"how long the opened breaker rejects mutations before probing (0 = default)")

		logLevel = fs.String("log-level", "info",
			"minimum log level: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text",
			"log record encoding: text or json")
		traceRing = fs.Int("trace-ring", 0,
			fmt.Sprintf("completed traces kept for GET /debug/traces (0 = default %d, negative disables tracing)", service.DefaultTraceRing))
		slowTrace = fs.Duration("slow-trace", 0,
			fmt.Sprintf("requests at or above this duration are flagged slow (0 = default %s, negative flags all)", service.DefaultSlowTrace))

		walDir = fs.String("wal-dir", "",
			"directory for the catalog's write-ahead log; empty keeps it beside the catalog file as <catalog>.wal")
		checkpointEvery = fs.Int("checkpoint-every", 0,
			fmt.Sprintf("committed mutations between WAL checkpoints (0 = default %d, negative disables automatic checkpoints)", catalog.DefaultCheckpointEvery))
		ingestQueue = fs.Int("ingest-queue", 0,
			fmt.Sprintf("trace batches queued for the ingest worker before POST /v1/ingest sheds with 429 (0 = default %d, negative disables the route)", service.DefaultIngestQueue))
		driftThreshold = fs.Float64("drift-threshold", 0,
			fmt.Sprintf("relative fetch-curve divergence that triggers a catalog republish (0 = default %g)", service.DefaultDriftThreshold))

		clusterSeeds = fs.String("cluster-seeds", "",
			"comma-separated peer base URLs; non-empty enables cluster mode")
		nodeID = fs.String("node-id", "",
			"stable node identity on the hash ring (required with -cluster-seeds)")
		nodeURL = fs.String("node-url", "",
			"base URL peers reach this node at, e.g. http://host:8080 (required with -cluster-seeds)")
		replicas = fs.Int("replicas", cluster.DefaultReplicas,
			fmt.Sprintf("replica-set size R per index key (1..%d)", cluster.MaxReplicas))
		heartbeat = fs.Duration("heartbeat", cluster.DefaultHeartbeat,
			"cluster gossip interval")
		handoffDir = fs.String("handoff-dir", "",
			"directory an older release kept its hint and stamp journals in (cluster mode): a stamp journal there is imported into the catalog's WAL once, then removed; leftover *.hints files are left unread")
		replicateTimeout = fs.Duration("replicate-timeout", 0,
			fmt.Sprintf("per-peer replication send timeout (0 = default %s)", service.DefaultReplicateTimeout))
		writeQuorum = fs.Int("write-quorum", 0,
			"owner acks required before a mutation succeeds (0 = majority of the replica set, negative = best-effort fan-out only)")
		clusterMaxIdleConns = fs.Int("cluster-max-idle-conns", 0,
			fmt.Sprintf("kept-alive connections per peer in the shared cluster transport (0 = default %d; requires -cluster-seeds)", cluster.DefaultMaxIdleConnsPerHost))
		snapshotMaxBytes = fs.Int64("snapshot-max-bytes", 0,
			fmt.Sprintf("largest digest or entries body accepted from a peer during anti-entropy; a pull fetches the entries it takes in as few requests as this allows (0 = default %d; requires -cluster-seeds)", cluster.DefaultSnapshotMaxBytes))
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := buildLogger(*quiet, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	fsys, err := faultFS(logger)
	if err != nil {
		return err
	}
	netInj, err := faultNet(logger)
	if err != nil {
		return err
	}

	if *memory && (*walDir != "" || *checkpointEvery != 0) {
		return fmt.Errorf("-in-memory excludes -wal-dir and -checkpoint-every")
	}
	var store *catalog.Store
	if *memory {
		store = catalog.NewStore()
	} else if store, err = catalog.OpenWALFS(*path, catalog.WALOptions{Dir: *walDir, CheckpointEvery: *checkpointEvery}, fsys); err != nil {
		return err
	}
	defer store.Close()
	if logger != nil {
		switch {
		case *memory:
			logger.Info("in-memory catalog (no persistence)")
		case store.Recovered():
			logger.Warn("catalog corrupt or missing; recovered previous generation",
				"path", *path, "entries", store.Len(), "recoveredFrom", catalog.PrevPath(*path), "wal", store.WALPath())
		case store.Len() == 0:
			logger.Info("catalog absent or empty; install statistics with PUT", "path", *path, "wal", store.WALPath())
		default:
			logger.Info("catalog loaded", "path", *path, "entries", store.Len(), "wal", store.WALPath())
		}
	}

	var node *cluster.Node
	if *clusterSeeds == "" {
		for name, set := range map[string]bool{
			"-cluster-max-idle-conns": *clusterMaxIdleConns != 0,
			"-snapshot-max-bytes":     *snapshotMaxBytes != 0,
		} {
			if set {
				return fmt.Errorf("%s requires -cluster-seeds", name)
			}
		}
	} else {
		if *nodeID == "" || *nodeURL == "" {
			return fmt.Errorf("-cluster-seeds requires -node-id and -node-url")
		}
		if *snapshotMaxBytes < 0 {
			return fmt.Errorf("-snapshot-max-bytes must be positive, got %d", *snapshotMaxBytes)
		}
		ncfg := cluster.Config{
			SelfID:              *nodeID,
			SelfURL:             *nodeURL,
			Seeds:               splitSeeds(*clusterSeeds),
			Replicas:            *replicas,
			Heartbeat:           *heartbeat,
			Store:               store,
			Log:                 logger,
			MaxIdleConnsPerHost: *clusterMaxIdleConns,
			SnapshotMaxBytes:    *snapshotMaxBytes,
		}
		if netInj != nil {
			// Gossip and anti-entropy cross the injector too; partitions
			// must be total, not replication-only. 5s matches the private
			// client the node builds when HTTPClient is nil.
			ncfg.HTTPClient = netInj.Client(5 * time.Second)
		}
		node, err = cluster.NewNode(ncfg)
		if err != nil {
			return err
		}
	}

	scfg := service.Config{
		Store:            store,
		CacheEntries:     *cache,
		RequestTimeout:   *timeout,
		MaxBatch:         *maxBatch,
		MaxInflight:      *maxInflight,
		BreakerFailures:  *breakerFailures,
		BreakerCooldown:  *breakerCooldown,
		Slog:             logger,
		TraceRing:        *traceRing,
		SlowTrace:        *slowTrace,
		Cluster:          node,
		IngestQueue:      *ingestQueue,
		DriftThreshold:   *driftThreshold,
		HandoffDir:       *handoffDir,
		ReplicateTimeout: *replicateTimeout,
		WriteQuorum:      *writeQuorum,
	}
	if netInj != nil {
		scfg.Transport = netInj
	}
	srv, err := service.New(scfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if logger != nil && *ingestQueue >= 0 {
		logger.Info("trace ingestion enabled",
			"queue", *ingestQueue, "driftThreshold", *driftThreshold)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if node != nil {
		go node.Run(ctx)
		if logger != nil {
			logger.Info("cluster mode enabled", "nodeID", *nodeID, "nodeURL", *nodeURL,
				"replicas", *replicas, "seeds", *clusterSeeds)
			idle, maxB := *clusterMaxIdleConns, *snapshotMaxBytes
			if idle == 0 {
				idle = cluster.DefaultMaxIdleConnsPerHost
			}
			if maxB == 0 {
				maxB = cluster.DefaultSnapshotMaxBytes
			}
			logger.Info("cluster hot path tuned", "maxIdleConnsPerHost", idle,
				"snapshotMaxBytes", maxB)
		}
	}

	if *pprof != "" {
		if err := servePprof(ctx, *pprof, logger); err != nil {
			return err
		}
	}

	start := time.Now()
	if netInj != nil {
		// Accept-side faults need the listener wrapped too.
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		err = srv.Serve(ctx, faultnet.WrapListener(ln, netInj))
		if err != nil {
			return err
		}
	} else if err := srv.Run(ctx, *addr); err != nil {
		return err
	}
	if logger != nil {
		logger.Info("stopped", "uptime", time.Since(start).Round(time.Millisecond).String())
	}
	return nil
}

// splitSeeds parses the -cluster-seeds list, trimming blanks.
func splitSeeds(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildLogger assembles the process logger from the -quiet/-log-level/
// -log-format flags. Quiet returns nil: every call site nil-guards, and the
// service layer substitutes a discard handler.
func buildLogger(quiet bool, level, format string) (*slog.Logger, error) {
	if quiet {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (want text or json)", format)
	}
}

// servePprof exposes the net/http/pprof endpoints on their own listener —
// deliberately separate from the service address so profiling stays
// reachable when admission control is shedding, and so operators can keep it
// bound to localhost while the API faces the network. Off by default: the
// profiler is opt-in via -pprof-addr.
func servePprof(ctx context.Context, addr string, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof-addr: %w", err)
	}
	// An explicit mux, not http.DefaultServeMux: nothing else in the process
	// registers handlers implicitly.
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && logger != nil {
			logger.Error("pprof server", "error", err)
		}
	}()
	if logger != nil {
		logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	}
	return nil
}

// faultFS builds the catalog's filesystem. With EPFIS_FAULTS unset it is the
// real OS; with a rule spec set (see faultfs.ParseRules for the grammar) it
// is a deterministic fault injector for chaos drills, seeded from
// EPFIS_FAULT_SEED so a failing drill can be replayed exactly.
func faultFS(logger *slog.Logger) (faultfs.FS, error) {
	spec := os.Getenv("EPFIS_FAULTS")
	if spec == "" {
		return faultfs.OS(), nil
	}
	rules, err := faultfs.ParseRules(spec)
	if err != nil {
		return nil, fmt.Errorf("EPFIS_FAULTS: %w", err)
	}
	var seed int64 = 1
	if raw := os.Getenv("EPFIS_FAULT_SEED"); raw != "" {
		if seed, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return nil, fmt.Errorf("EPFIS_FAULT_SEED: %w", err)
		}
	}
	inj := faultfs.NewInjector(faultfs.OS(), seed)
	for _, r := range rules {
		inj.Add(r)
	}
	if logger != nil {
		logger.Warn("FAULT INJECTION ACTIVE — not for production",
			"rules", len(rules), "seed", seed)
	}
	return inj, nil
}

// faultNet builds the deterministic network fault injector from
// EPFIS_NET_FAULTS / EPFIS_NET_FAULT_SEED; unset returns nil (real network).
// The injector sits on every outbound cluster hop and, via WrapListener, on
// inbound accepts.
func faultNet(logger *slog.Logger) (*faultnet.Injector, error) {
	spec := os.Getenv("EPFIS_NET_FAULTS")
	if spec == "" {
		return nil, nil
	}
	rules, err := faultnet.ParseRules(spec)
	if err != nil {
		return nil, fmt.Errorf("EPFIS_NET_FAULTS: %w", err)
	}
	var seed int64 = 1
	if raw := os.Getenv("EPFIS_NET_FAULT_SEED"); raw != "" {
		if seed, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return nil, fmt.Errorf("EPFIS_NET_FAULT_SEED: %w", err)
		}
	}
	inj := faultnet.NewInjector(nil, seed)
	for _, r := range rules {
		inj.Add(r)
	}
	if logger != nil {
		logger.Warn("NETWORK FAULT INJECTION ACTIVE — not for production",
			"rules", len(rules), "seed", seed)
	}
	return inj, nil
}
