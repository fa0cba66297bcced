package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/faultfs"
	"epfis/internal/service"
	"epfis/internal/stats"
)

// node is one in-process service.Server behind a real loopback listener.
type node struct {
	id     string
	url    string
	store  *catalog.Store
	srv    *service.Server
	hs     *http.Server
	served chan error
	cnode  *cluster.Node
	out    *http.Transport // outbound cluster transport; nil off-cluster
}

// env is a running workload deployment.
type env struct {
	nodes   []*node
	dir     string // WAL and handoff files; "" for in-memory stores
	stopRun context.CancelFunc
	running sync.WaitGroup // Node.Run loops
}

func (e *env) bases() []string {
	out := make([]string, len(e.nodes))
	for i, n := range e.nodes {
		out[i] = n.url
	}
	return out
}

// clusterIDs returns the node IDs clients compare X-Epfis-Node against, or
// nil off-cluster.
func (e *env) clusterIDs() []string {
	if e.nodes[0].cnode == nil {
		return nil
	}
	ids := make([]string, len(e.nodes))
	for i, n := range e.nodes {
		ids[i] = n.id
	}
	return ids
}

// walLSN sums the WAL stores' last assigned LSNs: one per committed frame.
func (e *env) walLSN() uint64 {
	var sum uint64
	for _, n := range e.nodes {
		sum += n.store.WALStatsNow().LSN
	}
	return sum
}

// catalogOf packs one stats version into a catalog for ReplaceAll.
func catalogOf(entries []*stats.IndexStats) (*stats.Catalog, error) {
	c := stats.NewCatalog()
	for _, e := range entries {
		if err := c.Put(e); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// startEnv starts the workload's nodes with version 0 of the catalog
// installed: one in-memory node for the read workloads, one WAL-backed node
// for ingest, and three WAL-backed nodes with R=2 for the cluster. With a
// tracer, its wrappers sit around each handler, transport and WAL
// filesystem. The stores' files go in a new directory under TMPDIR.
func startEnv(in *inputs, t *tracer) (_ *env, err error) {
	e := &env{}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	durable := in.workload == wCluster || in.workload == wIngest
	if durable {
		if e.dir, err = os.MkdirTemp("", in.workload+"-"); err != nil {
			return nil, err
		}
	}
	initial, err := catalogOf(in.entries[0])
	if err != nil {
		return nil, err
	}
	lns := make([]net.Listener, in.nodes)
	urls := make([]string, in.nodes)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, err
		}
		urls[i] = "http://" + lns[i].Addr().String()
	}
	for i := range lns {
		n := &node{id: "local", url: urls[i], served: make(chan error, 1)}
		if in.nodes > 1 {
			n.id = fmt.Sprintf("node-%c", 'a'+i)
		}
		n.store, err = openStore(e.dir, n.id, t)
		if err == nil {
			_, err = n.store.ReplaceAll(initial)
		}
		cfg := service.Config{Store: n.store}
		if err == nil && in.nodes > 1 {
			n.out = cluster.NewTransport(0)
			n.cnode, err = cluster.NewNode(cluster.Config{
				SelfID: n.id, SelfURL: n.url, Seeds: urls, Replicas: clusterReplicas, Store: n.store,
				HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: n.out},
			})
			cfg.Cluster = n.cnode
			cfg.HandoffDir = filepath.Join(e.dir, n.id, "handoff")
			cfg.Transport = n.out
			if t != nil {
				cfg.Transport = &hopTransport{t: t, node: n.id, base: n.out}
			}
		}
		if err == nil {
			n.srv, err = service.New(cfg)
		}
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			if n.store != nil {
				n.store.Close()
			}
			return nil, err
		}
		var h http.Handler = n.srv
		if t != nil {
			h = t.handler(n.id, n.srv)
		}
		n.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		go func(ln net.Listener) { n.served <- n.hs.Serve(ln) }(lns[i])
		e.nodes = append(e.nodes, n)
	}
	if in.nodes > 1 {
		if err := e.converge(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// openStore opens a WAL-backed store under dir/id, or an in-memory store
// when dir is empty.
func openStore(dir, id string, t *tracer) (*catalog.Store, error) {
	if dir == "" {
		return catalog.NewStore(), nil
	}
	if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
		return nil, err
	}
	fsys := faultfs.OS()
	if t != nil {
		fsys = &walFS{FS: fsys, t: t, node: id}
	}
	return catalog.OpenWALFS(filepath.Join(dir, id, "catalog.json"), catalog.WALOptions{}, fsys)
}

// converge runs manual gossip rounds until every ring holds every node,
// then leaves Node.Run gossiping in the background.
func (e *env) converge() error {
	ctx := context.Background()
	for round := 0; ; round++ {
		for _, n := range e.nodes {
			n.cnode.Tick(ctx)
		}
		done := true
		for _, n := range e.nodes {
			done = done && n.cnode.Ring().Len() == len(e.nodes)
		}
		if done {
			break
		}
		if round == 10 {
			return errors.New("cluster membership did not converge in 10 gossip rounds")
		}
	}
	ctx, e.stopRun = context.WithCancel(ctx)
	for _, n := range e.nodes {
		e.running.Add(1)
		go func(n *node) {
			defer e.running.Done()
			n.cnode.Run(ctx)
		}(n)
	}
	return nil
}

// close stops gossip, drains and stops every server, closes the stores and
// removes their files.
func (e *env) close() error {
	if e.stopRun != nil {
		e.stopRun()
		e.running.Wait()
	}
	var errs []error
	for _, n := range e.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, n.hs.Shutdown(ctx))
		cancel()
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		n.srv.Close()
		errs = append(errs, n.store.Close())
		if n.out != nil {
			n.out.CloseIdleConnections()
		}
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}
