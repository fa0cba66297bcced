package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration // measured window; a traced run splits it in half
	warmup  time.Duration
	setups  int           // set-ups per run; setup_s is their median
	trace   bool          // traced run: per-layer metrics, spans and ladder
	rung    time.Duration // ladder time per rung
	echo    time.Duration // echo floor measurement window
}

// cost is one layer's self time per sampled request.
type cost struct {
	Layer string  `json:"layer"`
	US    float64 `json:"us_per_request"`
}

// attribution compares the traced client p50 with the sum of parts
// measured without the client span: the loopback echo floor, in-process
// ServeHTTP, and on a cluster the forward hop times the proxied share.
type attribution struct {
	ClientP50 float64 `json:"client_p50_us"`
	Echo      float64 `json:"echo_us"`
	Inproc    float64 `json:"inproc_us"`
	Forward   float64 `json:"forward_share_us"`
	Residual  float64 `json:"residual"` // (client - sum) / client
	Pass      bool    `json:"within_15pct"`
}

// result is one workload run.
type result struct {
	Workload    string       `json:"workload"`
	Hash        string       `json:"request_hash"`
	Attempted   int64        `json:"attempted"`
	Failed      int64        `json:"failed"`
	Mismatches  int64        `json:"mismatches"`
	FirstError  string       `json:"first_error,omitempty"`
	Metrics     []metric     `json:"metrics"`
	Top         []cost       `json:"top_self_time,omitempty"`
	Attribution *attribution `json:"attribution,omitempty"`
	spans       []span
}

func (r *result) add(name string, v float64, n int64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unitOf(name), N: n})
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func unitOf(name string) string {
	for _, d := range append(endToEnd, perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// readKind is the request whose latency is read_p50_us and read_p99_us.
func readKind(workload string) opKind {
	if workload == wReadCold {
		return opBatch
	}
	return opEstimate
}

// merged sums the clients' tallies for the given phases.
func merged(cs []*client, phases ...int) tally {
	var m tally
	for _, c := range cs {
		for _, ph := range phases {
			t := &c.tallies[ph]
			for k := range t.lat {
				m.lat[k] = append(m.lat[k], t.lat[k]...)
			}
			m.attempted += t.attempted
			m.failed += t.failed
			m.mismatches += t.mismatches
			m.estimates += t.estimates
			m.cached += t.cached
			m.singles += t.singles
			m.proxied += t.proxied
			m.refs += t.refs
			m.respBytes += t.respBytes
			m.reads += t.reads
			if m.firstErr == "" {
				m.firstErr = t.firstErr
			}
		}
	}
	return m
}

func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runWorkload sets the workload up cfg.setups times, keeps the last
// deployment, drives it, and returns its metrics.
func runWorkload(cfg runConfig, workload string) (*result, error) {
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	var (
		in     *inputs
		e      *env
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		var err error
		if in, err = buildInputs(workload, cfg.seed); err != nil {
			return nil, err
		}
		if e, err = startEnv(in, t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
	}
	res, err := measure(cfg, in, e, t, setups)
	return res, errors.Join(err, e.close())
}

func measure(cfg runConfig, in *inputs, e *env, t *tracer, setups []float64) (*result, error) {
	d, err := drive(cfg, in, e, t)
	if err != nil {
		return nil, err
	}
	all := merged(d.clients, phaseWarm, phaseMeasure, phaseTraced)
	res := &result{Workload: in.workload, Hash: fmt.Sprintf("%016x", in.hash),
		Attempted: all.attempted, Failed: all.failed, Mismatches: all.mismatches, FirstError: all.firstErr}
	res.addEndToEnd(in, d, setups)
	res.Metrics = append(res.Metrics, metric{Name: "failed_frac", Unit: "ratio", N: all.attempted,
		Value: ratio(float64(all.failed), float64(all.attempted))})
	if cfg.trace {
		// The spans stay in memory until exit, so a traced run reports no heap.
		if err := res.addLayers(cfg, in, d, t); err != nil {
			return nil, err
		}
	} else {
		// The heap is read after the last use of the generator's latency
		// samples, so it counts the deployment and its inputs, not how many
		// requests ran.
		runtime.GC()
		var heap runtime.MemStats
		runtime.ReadMemStats(&heap)
		runtime.KeepAlive(in)
		res.add("live_heap_mb", float64(heap.HeapInuse)/1e6, 1)
	}
	sort.SliceStable(res.Metrics, func(i, j int) bool {
		return metricOrder(res.Metrics[i].Name) < metricOrder(res.Metrics[j].Name)
	})
	return res, nil
}

// counters scraped from /metrics around the traced window.
var scraped = []string{
	"epfis_cluster_quorum_fastacks_total", "epfis_cluster_handoff_queued_total",
	"epfis_ingest_shed_total", "epfis_ingest_batches_total",
	"epfis_ingest_scans_total", "epfis_ingest_republish_total",
}

// driven is what one drive of a deployment recorded.
type driven struct {
	clients  []*client
	dials    int64
	untraced time.Duration    // the untraced window
	ms0, ms1 runtime.MemStats // around it

	// Traced run only: deltas over the traced window.
	counters map[string]float64
	commits  float64 // WAL frames
	fsyncs   float64
	walBytes float64
	stages   *stageStats
}

// drive runs the clients closed loop through the warm-up and the measured
// window; a traced run spends the second half of the window traced.
func drive(cfg runConfig, in *inputs, e *env, t *tracer) (*driven, error) {
	d := &driven{}
	var dials atomic.Int64
	var phase atomic.Int32
	var wg sync.WaitGroup
	for i, seq := range in.clients {
		c := newClient(i, cfg.seed, seq, in, e.bases(), e.clusterIDs(), &dials, t)
		d.clients = append(d.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(&phase)
		}()
	}
	stop := func() {
		phase.Store(phaseStop)
		wg.Wait()
		for _, c := range d.clients {
			c.tr.CloseIdleConnections()
		}
		d.dials = dials.Load()
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	time.Sleep(cfg.warmup)
	runtime.ReadMemStats(&d.ms0)
	phase.Store(phaseMeasure)
	start := time.Now()
	time.Sleep(window)
	runtime.ReadMemStats(&d.ms1)
	d.untraced = time.Since(start)
	if !cfg.trace {
		stop()
		return d, nil
	}
	if err := d.traced(e, t, &phase, window, stop, kindRoutes[readKind(in.workload)]); err != nil {
		return nil, err
	}
	return d, nil
}

// traced runs the traced half of the window: spans on, the servers' trace
// rings polled, and counters read before and after.
func (d *driven) traced(e *env, t *tracer, phase *atomic.Int32, window time.Duration, stop func(), readRoute string) error {
	before, err := scrapeCounters(e.bases(), scraped...)
	if err != nil {
		stop()
		return err
	}
	lsn, fsyncs, walBytes := e.walLSN(), t.fsyncs.Load(), t.walBytes.Load()
	ctx, cancel := context.WithCancel(context.Background())
	polled := make(chan *stageStats, 1)
	go func() { polled <- pollStages(ctx, e.bases(), readRoute) }()
	t.on.Store(true)
	phase.Store(phaseTraced)
	time.Sleep(window)
	stop()
	t.on.Store(false)
	cancel()
	d.stages = <-polled
	d.commits = float64(e.walLSN() - lsn)
	d.fsyncs = float64(t.fsyncs.Load() - fsyncs)
	d.walBytes = float64(t.walBytes.Load() - walBytes)
	after, err := scrapeCounters(e.bases(), scraped...)
	if err != nil {
		return err
	}
	d.counters = map[string]float64{}
	for _, name := range scraped {
		d.counters[name] = after[name] - before[name]
	}
	return nil
}

// addPct adds a latency percentile when the sample-count rule allows it.
func (r *result) addPct(name string, ns []int64, q float64) {
	if v, ok := percentile(usOf(ns), q); ok {
		r.add(name, v, int64(len(ns)))
	}
}

// addEndToEnd adds what a user sees, from the untraced window.
func (r *result) addEndToEnd(in *inputs, d *driven, setups []float64) {
	m := merged(d.clients, phaseMeasure)
	secs := d.untraced.Seconds()
	r.add("setup_s", p50(setups), int64(len(setups)))
	r.addPct("read_p50_us", m.lat[readKind(in.workload)], 0.5)
	r.addPct("read_p99_us", m.lat[readKind(in.workload)], 0.99)
	r.add("estimates_per_s", float64(m.estimates)/secs, m.estimates)
	switch in.workload {
	case wCluster:
		r.addPct("put_p50_us", m.lat[opPut], 0.5)
		r.addPct("put_p99_us", m.lat[opPut], 0.99)
	case wIngest:
		r.add("ingest_refs_per_s", float64(m.refs)/secs, m.refs)
		r.addPct("ingest_ack_p50_us", m.lat[opIngest], 0.5)
		r.addPct("ingest_ack_p99_us", m.lat[opIngest], 0.99)
	}
}

// addLayers adds the per-layer metrics of a traced run: from its spans, the
// servers' stage spans and counters, the ladder and the echo floor. A
// median without enough samples reads 0.
func (r *result) addLayers(cfg runConfig, in *inputs, d *driven, t *tracer) error {
	m := merged(d.clients, phaseMeasure)
	tm := merged(d.clients, phaseTraced)
	t.mu.Lock()
	r.spans = t.spans
	t.mu.Unlock()
	readRoute := kindRoutes[readKind(in.workload)]
	st := analyzeSpans(r.spans, readRoute)
	layer := func(name string, v float64, n int) { r.add(name, v, int64(n)) }
	median := func(s []float64) float64 {
		v, _ := percentile(s, 0.5)
		return v
	}
	pct := func(name string, s []float64) { layer(name, median(s), len(s)) }
	c := d.counters
	stages := d.stages

	pct("net.self_us", st.netSelf)
	layer("net.dials", float64(d.dials), len(d.clients))
	pct("service.handler_us", st.readHandler)
	// Middleware is the handler's time outside the local stages (their mean
	// per request); the proxy stage is left out as it contains the hop.
	local := 0.0
	for _, s := range []string{"parse", "cache", "estimate", "encode", "proxy"} {
		pct("service.stage."+s+"_us", stages.stages[s])
		if s != "proxy" {
			local += ratio(stages.totals[s], float64(stages.records))
		}
	}
	layer("service.middleware_us", max(median(st.readHandler)-local, 0), stages.records)
	layer("service.cache_hit_ratio", ratio(float64(m.cached), float64(m.estimates)), int(m.estimates))
	pct("ingest.handler_us", st.ingest)
	shed, batches := c["epfis_ingest_shed_total"], c["epfis_ingest_batches_total"]
	layer("ingest.shed_ratio", ratio(shed, shed+batches), int(shed+batches))
	layer("ingest.scans", c["epfis_ingest_scans_total"], 1)
	layer("ingest.republishes", c["epfis_ingest_republish_total"], 1)
	layer("catalog.fsyncs_per_commit", ratio(d.fsyncs, d.commits), int(d.commits))
	layer("catalog.wal_bytes_per_commit", ratio(d.walBytes, d.commits), int(d.commits))
	pct("cluster.forward_us", st.forward)
	proxied := ratio(float64(m.proxied), float64(m.singles))
	layer("cluster.proxied_ratio", proxied, int(m.singles))
	pct("cluster.replicate_us", st.replicate)
	puts := len(tm.lat[opPut])
	layer("cluster.fastack_ratio", ratio(c["epfis_cluster_quorum_fastacks_total"], float64(puts)), puts)
	layer("cluster.hints", c["epfis_cluster_handoff_queued_total"], 1)
	gcs := int(d.ms1.NumGC - d.ms0.NumGC)
	layer("runtime.gc_cycles", float64(gcs), 1)
	layer("runtime.gc_pause_ms", float64(d.ms1.PauseTotalNs-d.ms0.PauseTotalNs)/1e6, gcs)
	layer("runtime.alloc_bytes_per_op", ratio(float64(d.ms1.TotalAlloc-d.ms0.TotalAlloc), float64(m.attempted)), int(m.attempted))
	tracedRead := usOf(tm.lat[readKind(in.workload)])
	layer("trace.overhead_us", median(tracedRead)-median(usOf(m.lat[readKind(in.workload)])), len(tracedRead))

	lad, err := runLadder(in, cfg.seed, cfg.rung)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for name, v := range lad {
		layer(name, v, 1)
	}
	echo, echoN, err := echoLatency(in, int(ratio(float64(m.respBytes), float64(m.reads))), cfg.warmup/4, cfg.echo)
	if err != nil {
		return err
	}
	layer("net.echo_us", echo, echoN)

	a := &attribution{ClientP50: median(st.readClient), Echo: echo, Inproc: lad["service.inproc_single_ns"] / 1e3}
	if in.workload == wReadCold {
		a.Inproc = lad["service.inproc_batch64_ns"] / 1e3
	}
	if in.workload == wCluster {
		a.Forward = median(st.forward) * proxied
	}
	a.Residual = ratio(a.ClientP50-(a.Echo+a.Inproc+a.Forward), a.ClientP50)
	a.Pass = a.Residual >= -0.15 && a.Residual <= 0.15
	r.Attribution = a
	layer("trace.attribution_residual", a.Residual, len(st.readClient))

	r.Top = topCosts(st, stages)
	return nil
}

// topCosts ranks layers by self time per sampled request. The read
// handler's self time is split by the server's own stage spans (their mean
// per record); the remainder is middleware.
func topCosts(st spanStats, stages *stageStats) []cost {
	if st.clients == 0 {
		return nil
	}
	per := func(ns int64) float64 { return float64(ns) / 1e3 / float64(st.clients) }
	var costs []cost
	handler := per(st.selfNs[spanHandler])
	readShare := ratio(float64(len(st.readClient)), float64(st.clients))
	for _, s := range []string{"parse", "cache", "estimate", "encode"} {
		v := min(ratio(stages.totals[s], float64(stages.records))*readShare, handler)
		handler -= v
		costs = append(costs, cost{"service.stage." + s, v})
	}
	costs = append(costs, cost{"service.middleware", handler})
	for name, ns := range st.selfNs {
		if name != spanHandler {
			costs = append(costs, cost{name, per(ns)})
		}
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].US > costs[j].US })
	return costs[:min(3, len(costs))]
}

// metricOrder sorts metrics as declared: end to end, then per layer.
func metricOrder(name string) int {
	for i, d := range append(endToEnd, perLayer...) {
		if d.name == name {
			return i
		}
	}
	return len(endToEnd) + len(perLayer)
}

// line renders one metric as "<workload> <metric> <value> <unit> n=<samples>".
func line(workload string, m metric) string {
	return fmt.Sprintf("%s %s %s %s n=%d", workload, m.Name, formatValue(m.Value), m.Unit, m.N)
}

func formatValue(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
