package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/faultfs"
)

// TestClusterPutGroupCommit gates group commit on the cluster mutation
// path: 16 writers each PUT 16 distinct keys through one WAL-backed cluster
// node's PUT route, and every durability barrier (file and directory
// fsyncs, counted on the store's filesystem, which every cluster write now
// goes through) is counted. The commits must cost at most 0.5 barriers each,
// the single-node WAL threshold (TestWALGroupCommitSpeedup). A lock held
// across each commit node-wide, or a second log per mutation, makes every
// PUT pay its own fsync: 1.0 or more. Each file sync is slowed to a disk's
// 1–2 ms: where fsync is nearly free (tens of µs on a write-cached virtual
// disk), writers spend most of their time in request handling rather than
// waiting on a flush, and the count would track the host's CPU, not the
// locking.
func TestClusterPutGroupCommit(t *testing.T) {
	const (
		writers, putsEach    = 16, 16
		commits              = writers * putsEach
		maxBarriersPerCommit = 0.5
		traceCap             = 4096 // faultfs.Injector keeps the last 4,096 operations
	)
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	store, err := catalog.OpenWALFS(filepath.Join(dir, "catalog.json"), catalog.WALOptions{}, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	node, err := cluster.NewNode(cluster.Config{SelfID: "node-a", SelfURL: "http://127.0.0.1:1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Cluster: node, WriteQuorum: -1, HandoffDir: filepath.Join(dir, "hints")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Count: -1, Mode: faultfs.ModeSlow, Delay: 2 * time.Millisecond})

	base := fitStats(t, "t", "c", 1)
	bodies := make([][]byte, commits)
	for i := range bodies {
		e := *base
		e.Column = fmt.Sprintf("c%d", i)
		bodies[i] = mustMarshal(t, &e)
	}
	mark := len(inj.Trace())
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsEach; i++ {
				n := w*putsEach + i
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/v1/indexes/t/c%d", n), bytes.NewReader(bodies[n])))
				if rec.Code != http.StatusOK {
					t.Errorf("PUT t.c%d = %d: %s", n, rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if store.Len() != commits {
		t.Fatalf("store holds %d entries after %d PUTs", store.Len(), commits)
	}
	trace := inj.Trace()
	if len(trace) >= traceCap {
		t.Fatalf("faultfs trace overflowed (%d operations); barriers uncountable", len(trace))
	}
	barriers := 0
	for _, op := range trace[mark:] {
		if strings.HasPrefix(op, string(faultfs.OpSync)+" ") || strings.HasPrefix(op, string(faultfs.OpSyncDir)+" ") {
			barriers++
		}
	}
	perCommit := float64(barriers) / commits
	t.Logf("%d barriers for %d cluster PUTs: %.3f per commit (gate %.2f)", barriers, commits, perCommit, maxBarriersPerCommit)
	if perCommit > maxBarriersPerCommit {
		t.Fatalf("%.3f durability barriers per cluster commit, want <= %.2f: cluster mutations do not share a group commit", perCommit, maxBarriersPerCommit)
	}
}
