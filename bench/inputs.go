package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/lrusim"
	"epfis/internal/service"
	"epfis/internal/stats"
)

// The catalog every workload serves: 64 synthetic indexes fitted with
// LRU-Fit, with the clustering window cycling through four values so the
// served curves range from nearly clustered to unclustered.
const (
	numIndexes     = 64
	indexRecords   = 100_000
	indexKeys      = 1_000
	recordsPerPage = 40 // T = 2,500 pages
	tableName      = "bench"

	minB, maxB = 12, 2500 // requested buffer sizes, uniform

	hotPool         = 2048 // read-hot shapes; fits the 4,096-entry memo cache
	hotZipfS        = 1.1
	batchPlans      = 64
	batchesPerCli   = 1024 // read-cold-batch bodies per client, cycled
	seqLen          = 1 << 15
	putShare        = 0.10
	clusterNodes    = 3
	clusterReplicas = 2
	ingestBatchRefs = 5000 // divides indexRecords, so scans end on batch boundaries
	streamedIndexes = 8
)

var clusteringWindows = [...]float64{0.01, 0.05, 0.2, 1.0}

// altWindow pairs each clustering window with a distant one, so the two
// versions of an index differ by far more than the ingest drift threshold.
func altWindow(k float64) float64 {
	switch k {
	case 0.01:
		return 1.0
	case 1.0:
		return 0.01
	case 0.05:
		return 0.2
	default:
		return 0.05
	}
}

// Workload names, in the order "all" runs them.
const (
	wReadHot     = "read-hot"
	wReadCold    = "read-cold-batch"
	wCluster     = "cluster-mixed"
	wIngest      = "ingest-under-read"
	allWorkloads = "all"
)

var workloadNames = []string{wReadHot, wReadCold, wCluster, wIngest}

type opKind uint8

const (
	opEstimate opKind = iota // GET /v1/estimate
	opBatch                  // POST /v1/estimate/batch
	opPut                    // PUT /v1/indexes/{table}/{column}
	opIngest                 // POST /v1/ingest
	numKinds
)

var kindRoutes = [numKinds]string{
	"GET /v1/estimate", "POST /v1/estimate/batch", "PUT /v1/indexes/{table}/{column}", "POST /v1/ingest",
}

// op is one generated request. want lists, per estimate in the response, the
// answer under each stats version the workload can have installed.
type op struct {
	kind  opKind
	node  int
	path  string
	body  []byte
	index int // opPut: the index whose two versions alternate
	want  [][2]float64
}

// inputs is everything a workload sends and expects, generated from the seed
// before any server starts.
type inputs struct {
	workload  string
	nodes     int
	entries   [2][]*stats.IndexStats // [version][index]; version 1 is nil where unused
	shapes    []shape                // every estimate shape the workload sends
	clients   [][]*op                // closed-loop sequence per client, cycled
	putBodies [][2][]byte            // cluster-mixed: PUT body per index and version
	hash      uint64
}

type shape struct {
	index int
	b     int64
	sigma float64
}

func column(i int) string { return fmt.Sprintf("c%02d", i) }

// derive splits the run seed into independent streams (splitmix64).
func derive(seed int64, stream, i uint64) int64 {
	x := uint64(seed) ^ stream*0x9E3779B97F4A7C15 ^ (i+1)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return int64(x ^ x>>31)
}

const (
	streamCatalog = iota + 1
	streamAlt
	streamShapes
	streamClient
)

// buildInputs generates and fits the catalog and every request of one
// workload. The same seed always yields the same inputs (and hash).
func buildInputs(workload string, seed int64) (*inputs, error) {
	in := &inputs{workload: workload, nodes: 1}
	alt := 0
	switch workload {
	case wCluster:
		in.nodes, alt = clusterNodes, numIndexes
	case wIngest:
		alt = streamedIndexes
	case wReadHot, wReadCold:
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	traces, err := in.fit(seed, alt, workload == wIngest)
	if err != nil {
		return nil, err
	}
	switch workload {
	case wReadHot:
		err = in.genReadHot(seed)
	case wReadCold:
		err = in.genReadCold(seed)
	case wCluster:
		err = in.genCluster(seed)
	case wIngest:
		err = in.genIngest(seed, traces)
	}
	if err != nil {
		return nil, err
	}
	in.hash = in.sequenceHash()
	return in, nil
}

// fit generates and fits the 64 version-0 indexes plus version 1 of the
// first alt indexes, on GOMAXPROCS workers. With keepTraces it returns the
// scan traces of both versions of the alt indexes.
func (in *inputs) fit(seed int64, alt int, keepTraces bool) ([2][]lrusim.Trace, error) {
	var traces [2][]lrusim.Trace
	in.entries[0] = make([]*stats.IndexStats, numIndexes)
	in.entries[1] = make([]*stats.IndexStats, numIndexes)
	if keepTraces {
		traces[0] = make([]lrusim.Trace, alt)
		traces[1] = make([]lrusim.Trace, alt)
	}
	type job struct{ version, index int }
	jobs := make(chan job)
	errs := make([]error, numIndexes*2)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				k := clusteringWindows[j.index%len(clusteringWindows)]
				stream := uint64(streamCatalog)
				if j.version == 1 {
					k, stream = altWindow(k), streamAlt
				}
				st, tr, err := fitIndex(j.index, k, derive(seed, stream, uint64(j.index)))
				errs[j.version*numIndexes+j.index] = err
				in.entries[j.version][j.index] = st
				if keepTraces && j.index < alt {
					traces[j.version][j.index] = tr
				}
			}
		}()
	}
	for i := 0; i < numIndexes; i++ {
		jobs <- job{0, i}
		if i < alt {
			jobs <- job{1, i}
		}
	}
	close(jobs)
	wg.Wait()
	return traces, errors.Join(errs...)
}

// fitIndex generates one index's data and fits it offline with LRU-Fit.
// CollectedAt is pinned so that equal seeds give byte-identical PUT bodies.
func fitIndex(i int, k float64, seed int64) (*stats.IndexStats, lrusim.Trace, error) {
	cfg := datagen.Config{Name: tableName, Column: column(i), N: indexRecords, I: indexKeys,
		R: recordsPerPage, K: k, Seed: seed}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generate index %d: %w", i, err)
	}
	tr := ds.Trace()
	st, err := core.LRUFit(tr, core.Meta{Table: tableName, Column: column(i), T: ds.T, N: cfg.N, I: cfg.I}, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("fit index %d: %w", i, err)
	}
	st.CollectedAt = time.Unix(0, 0).UTC()
	return st, tr, nil
}

func randShape(r *rand.Rand) shape {
	return shape{index: r.Intn(numIndexes), b: minB + r.Int63n(maxB-minB+1), sigma: 1 - r.Float64()}
}

// expect computes the offline Est-IO answer for s under both versions (the
// same value twice where the index has only one).
func (in *inputs) expect(s shape) ([2]float64, error) {
	var want [2]float64
	for v := range want {
		e := in.entries[v][s.index]
		if e == nil {
			e = in.entries[0][s.index]
		}
		est, err := core.EstIO(e, core.Input{B: s.b, Sigma: s.sigma, S: 1}, core.Options{})
		if err != nil {
			return want, fmt.Errorf("expected answer for %+v: %w", s, err)
		}
		want[v] = est.F
	}
	return want, nil
}

func formatSigma(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

func estimatePath(s shape) string {
	return "/v1/estimate?table=" + tableName + "&column=" + column(s.index) +
		"&b=" + strconv.FormatInt(s.b, 10) + "&sigma=" + formatSigma(s.sigma)
}

// estimateOp builds a single-estimate GET for s and records the shape.
func (in *inputs) estimateOp(s shape, node int) (*op, error) {
	want, err := in.expect(s)
	if err != nil {
		return nil, err
	}
	in.shapes = append(in.shapes, s)
	return &op{kind: opEstimate, node: node, path: estimatePath(s), want: [][2]float64{want}}, nil
}

// genReadHot draws 2 clients' sequences Zipf(1.1) over a pool of 2,048 shapes.
func (in *inputs) genReadHot(seed int64) error {
	r := rand.New(rand.NewSource(derive(seed, streamShapes, 0)))
	pool := make([]*op, hotPool)
	for i := range pool {
		o, err := in.estimateOp(randShape(r), 0)
		if err != nil {
			return err
		}
		pool[i] = o
	}
	for c := 0; c < 2; c++ {
		cr := rand.New(rand.NewSource(derive(seed, streamClient, uint64(c))))
		z := rand.NewZipf(cr, hotZipfS, 1, hotPool-1)
		seq := make([]*op, seqLen)
		for i := range seq {
			seq[i] = pool[z.Uint64()]
		}
		in.clients = append(in.clients, seq)
	}
	return nil
}

// genReadCold builds 2 clients' cycles of 64-plan batches with uniform B
// and sigma: over a quarter million distinct plans, so the memo cache almost
// never hits.
func (in *inputs) genReadCold(seed int64) error {
	for c := 0; c < 2; c++ {
		r := rand.New(rand.NewSource(derive(seed, streamClient, uint64(c))))
		seq := make([]*op, batchesPerCli)
		for i := range seq {
			var req service.BatchRequest
			o := &op{kind: opBatch, path: "/v1/estimate/batch"}
			for j := 0; j < batchPlans; j++ {
				s := randShape(r)
				want, err := in.expect(s)
				if err != nil {
					return err
				}
				in.shapes = append(in.shapes, s)
				req.Requests = append(req.Requests, service.EstimateRequest{
					Table: tableName, Column: column(s.index), B: s.b, Sigma: s.sigma})
				o.want = append(o.want, want)
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			o.body = body
			seq[i] = o
		}
		in.clients = append(in.clients, seq)
	}
	return nil
}

// genCluster builds 2 clients' uniform mixes over 3 nodes: 90% single
// estimates, 10% PUTs. Client c only writes indexes with i%2 == c, so
// alternating versions makes every PUT a real mutation.
func (in *inputs) genCluster(seed int64) error {
	in.putBodies = make([][2][]byte, numIndexes)
	for i := range in.putBodies {
		for v := 0; v < 2; v++ {
			b, err := json.Marshal(in.entries[v][i])
			if err != nil {
				return err
			}
			in.putBodies[i][v] = b
		}
	}
	for c := 0; c < 2; c++ {
		r := rand.New(rand.NewSource(derive(seed, streamClient, uint64(c))))
		seq := make([]*op, seqLen)
		for i := range seq {
			node := r.Intn(clusterNodes)
			if r.Float64() < putShare {
				idx := 2*r.Intn(numIndexes/2) + c
				seq[i] = &op{kind: opPut, node: node, index: idx,
					path: "/v1/indexes/" + tableName + "/" + column(idx)}
				continue
			}
			o, err := in.estimateOp(randShape(r), node)
			if err != nil {
				return err
			}
			seq[i] = o
		}
		in.clients = append(in.clients, seq)
	}
	return nil
}

// genIngest builds the producer's cycle (full scans of the first 8 indexes,
// alternating each between its two traces, in 5,000-reference batches) and
// the reader's uniform estimates over all 64 indexes.
func (in *inputs) genIngest(seed int64, traces [2][]lrusim.Trace) error {
	var producer []*op
	for pass := 0; pass < 2; pass++ {
		v := 1 - pass // the first scan of each index drifts to version 1
		for j := 0; j < streamedIndexes; j++ {
			tr := traces[v][j]
			for b := 0; b*ingestBatchRefs < len(tr); b++ {
				body, err := json.Marshal(service.IngestRequest{
					Table: tableName, Column: column(j),
					Pages: tr[b*ingestBatchRefs : (b+1)*ingestBatchRefs],
					T:     in.entries[v][j].T, N: indexRecords, I: indexKeys,
					BatchID: fmt.Sprintf("%s-v%d-%02d", column(j), v, b),
				})
				if err != nil {
					return err
				}
				producer = append(producer, &op{kind: opIngest, path: "/v1/ingest", body: body})
			}
		}
	}
	r := rand.New(rand.NewSource(derive(seed, streamClient, 1)))
	reader := make([]*op, seqLen)
	for i := range reader {
		o, err := in.estimateOp(randShape(r), 0)
		if err != nil {
			return err
		}
		reader[i] = o
	}
	in.clients = [][]*op{producer, reader}
	return nil
}

// sequenceHash fingerprints every generated request, body and expected
// answer.
func (in *inputs) sequenceHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for c, seq := range in.clients {
		put(uint64(c))
		for _, o := range seq {
			put(uint64(o.kind)<<32 | uint64(o.node)<<16 | uint64(o.index))
			h.Write([]byte(o.path))
			h.Write(o.body)
			for _, w := range o.want {
				put(math.Float64bits(w[0]))
				put(math.Float64bits(w[1]))
			}
		}
	}
	for _, pb := range in.putBodies {
		h.Write(pb[0])
		h.Write(pb[1])
	}
	return h.Sum64()
}
