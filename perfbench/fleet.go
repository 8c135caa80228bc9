package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"blackdp/internal/dist"
	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
	"blackdp/internal/serve"
	"blackdp/serve/client"
)

// The serve-fleet workload is the service path: two closed-loop
// serve/client clients call an in-process blackdp-serve whose Distributor
// is a dist.Coordinator over two loopback dist.Workers. Each client
// alternates two requests: a fresh-seed 8-replication sweep of a small
// world, which misses the result cache and is computed through the fleet,
// and a repeat of a small hot set of keys pre-warmed during set-up, which
// is answered from the cache. Misses and hits are timed apart, because
// their latencies differ a hundredfold.
//
// The server runs one job at a time (serve Workers 1): the fleet has two
// chunk slots, one 8-rep miss fills both, and a second concurrent miss
// would be refused by the workers with a whole-second Retry-After. The
// second client's miss waits in the server's queue instead, where the
// traced run measures it.

const (
	fleetClients   = 2
	fleetWorkers   = 2
	fleetChunkReps = 4
	fleetReps      = 8 // replications per miss
	fleetHotKeys   = 4
	// fleetCounted is how many misses a traced phase always completes.
	fleetCounted = 4
	// fleetRetain sizes every result cache and the server's job registry.
	// At their defaults they would still be filling at the end of a run,
	// and heap_live_mb_max would measure how many jobs the run completed;
	// at this size the service reaches its steady-state memory within
	// the first seconds. The hot set stays cached: between two hits on a
	// hot key fewer than fleetRetain - fleetHotKeys misses enter.
	fleetRetain = 16
	// hotIndex is the job index of hot key 0; hot keys count down from it,
	// clear of every timed miss and set-up index.
	hotIndex = -100
	// parentHeader carries the parent span ID across HTTP hops.
	parentHeader = "X-Perfbench-Parent"
)

// fleetConfig is the miss world: 30 vehicles on a 4 km highway with
// session-token crypto.
func fleetConfig(seed int64, i int) (json.RawMessage, scenario.Config, error) {
	raw := fmt.Sprintf(`{"Seed":%d,"Vehicles":30,"HighwayLengthM":4000,"AttackerCluster":2,"DataPackets":5,"CryptoScheme":"session"}`,
		jobSeed(seed, i))
	cfg, err := scenario.DecodeConfig([]byte(raw))
	return json.RawMessage(raw), cfg, err
}

func fleetRequest(seed int64, i int) (client.Request, error) {
	raw, _, err := fleetConfig(seed, i)
	return client.Request{Kind: "sweep", Reps: fleetReps, Config: raw}, err
}

// fleet is one in-process deployment. A traced fleet carries a tracer and
// wraps every hop in spans; an untraced one serves the handlers as they are.
type fleet struct {
	tr        *tracer
	srv       *serve.Server
	coord     *dist.Coordinator
	workers   []*dist.Worker
	servers   []*http.Server // the workers' HTTP servers
	transport *http.Transport
	cl        *client.Client
	serving   sync.WaitGroup
	hot       [][]byte // pre-warmed payloads, by hot key
}

func startFleet(ctx context.Context, e *env, tr *tracer, warmup int) (f *fleet, err error) {
	f = &fleet{tr: tr, transport: http.DefaultTransport.(*http.Transport).Clone()}
	f.transport.MaxIdleConnsPerHost = 8
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	var rt http.RoundTripper = f.transport
	if tr != nil {
		rt = stampParent{f.transport}
	}
	hc := &http.Client{Transport: rt}
	var urls []string
	for range fleetWorkers {
		w := dist.NewWorker(dist.WorkerConfig{Slots: 1, SweepWorkers: 1, CacheEntries: fleetRetain})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		hs := &http.Server{Handler: spanHandler(tr, "dist.chunk", w.Handler())}
		f.workers, f.servers = append(f.workers, w), append(f.servers, hs)
		f.serving.Add(1)
		go func() { defer f.serving.Done(); _ = hs.Serve(l) }()
		urls = append(urls, "http://"+l.Addr().String())
	}
	f.coord = dist.New(dist.Config{Workers: urls, ChunkReps: fleetChunkReps, CacheEntries: fleetRetain, Client: hc})
	f.coord.Start()
	var d serve.Distributor = f.coord
	if tr != nil {
		d = tracedDist{f.coord, tr}
	}
	f.srv, err = serve.New(serve.Config{Workers: 1, SweepWorkers: 1, CacheEntries: fleetRetain,
		RetainJobs: fleetRetain, Distributor: d})
	if err != nil {
		return f, err
	}
	f.srv.SetHandler(spanHandler(tr, "serve.handler", f.srv.Handler()))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	f.serving.Add(1)
	go func() { defer f.serving.Done(); _ = f.srv.Serve(l) }()
	f.cl = &client.Client{BaseURL: "http://" + l.Addr().String(), HTTP: hc, MaxRetries: -1}

	for _, u := range append(urls, f.cl.BaseURL) {
		if !client.Probe(ctx, hc, u) {
			return f, fmt.Errorf("health probe of %s failed", u)
		}
	}
	for k := range fleetHotKeys {
		req, err := fleetRequest(e.seed, hotIndex-k)
		if err != nil {
			return f, err
		}
		res, err := f.cl.Submit(ctx, req, nil)
		if err != nil {
			return f, fmt.Errorf("pre-warming hot key %d: %w", k, err)
		}
		f.hot = append(f.hot, res.Payload)
	}
	// The warm-up job is one miss and one hit; the miss is the same for
	// every run, on a seed no timed job uses.
	req, err := fleetRequest(warmupSeed, -1-warmup)
	if err != nil {
		return f, err
	}
	if _, err := f.cl.Submit(ctx, req, nil); err != nil {
		return f, fmt.Errorf("warm-up miss: %w", err)
	}
	if _, err := f.cl.Submit(ctx, mustHot(e, 0), nil); err != nil {
		return f, fmt.Errorf("warm-up hit: %w", err)
	}
	return f, nil
}

func mustHot(e *env, k int) client.Request {
	req, _ := fleetRequest(e.seed, hotIndex-k) // validated by the pre-warm
	return req
}

// stop drains the server and the workers and waits for every server
// goroutine to return.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.srv != nil {
		_, _ = f.srv.Drain(ctx)
	}
	if f.coord != nil {
		f.coord.Stop()
	}
	for i, w := range f.workers {
		_, _ = w.Drain(ctx)
		_ = f.servers[i].Shutdown(ctx)
	}
	f.transport.CloseIdleConnections()
	f.serving.Wait()
}

// chunkRetries reads the coordinator's retried-chunk counter from the
// server's metrics exposition.
func (f *fleet) chunkRetries(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cl.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.cl.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "blackdp_dist_chunks_retried_total "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("blackdp_dist_chunks_retried_total not exported")
}

// fleetRecord is what one phase of closed-loop traffic observed.
type fleetRecord struct {
	mu       sync.Mutex
	miss     []time.Duration
	hit      []time.Duration
	refs     []time.Duration // reference times, timed with the clients paused
	first    []time.Duration // submit to first progress line, misses
	accept   []time.Duration // submit to accepted line, every job
	acceptAt map[int]time.Duration
	payload  []float64 // KB
	progress int       // progress lines received on misses
	hashes   map[int]string
	sample   []byte // the payload of miss 0
}

// loop runs the closed-loop clients until the window has closed and each
// client has completed at least minMisses misses. Client c's m-th miss is
// job c + 2m, so every run computes the same jobs in the same order. Every
// half second the clients pause while the reference kernel is timed.
func (f *fleet) loop(ctx context.Context, e *env, window time.Duration, minMisses int) *fleetRecord {
	rec := &fleetRecord{hashes: map[int]string{}, acceptAt: map[int]time.Duration{}}
	gate := startRefGate(500 * time.Millisecond)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range fleetClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Since(start) < window || k < 2*minMisses; k++ {
				gate.enter()
				if k%2 == 0 {
					f.miss(ctx, e, c+fleetClients*(k/2), rec)
				} else {
					f.hit(ctx, e, (c+k/2)%fleetHotKeys, rec)
				}
				gate.leave()
			}
		}()
	}
	wg.Wait()
	rec.refs = gate.finish()
	return rec
}

// submit sends one request under a root span and times its stream.
func (f *fleet) submit(ctx context.Context, name string, job int, req client.Request) (res *client.Result, d, accepted, first time.Duration, progress int, err error) {
	root := f.tr.begin(name, 0, job)
	if root != 0 {
		ctx = withSpan(ctx, root)
	}
	t0 := time.Now()
	res, err = f.cl.Submit(ctx, req, func(line []byte) {
		switch {
		case bytes.HasPrefix(line, []byte(`{"type":"accepted"`)):
			accepted = time.Since(t0)
		case bytes.HasPrefix(line, []byte(`{"type":"progress"`)):
			if progress == 0 {
				first = time.Since(t0)
			}
			progress++
		}
	})
	d = time.Since(t0)
	f.tr.end(root)
	return res, d, accepted, first, progress, err
}

func (f *fleet) miss(ctx context.Context, e *env, i int, rec *fleetRecord) {
	e.rep.ops(1, 0)
	req, err := fleetRequest(e.seed, i)
	if err != nil {
		e.rep.check(fmt.Sprintf("miss-%d", i), err, "")
		return
	}
	res, d, accepted, first, progress, err := f.submit(ctx, "job", i, req)
	if err == nil && res.Cache != "miss" {
		err = fmt.Errorf("answered as cache %q, want a miss", res.Cache)
	}
	if err != nil {
		e.rep.check(fmt.Sprintf("miss-%d", i), err, "")
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.miss = append(rec.miss, d)
	if progress > 0 {
		rec.first = append(rec.first, first)
	}
	rec.accept = append(rec.accept, accepted)
	rec.acceptAt[i] = accepted
	rec.payload = append(rec.payload, float64(len(res.Payload))/1024)
	rec.progress += progress
	rec.hashes[i] = hashBytes(res.Payload)
	if i == 0 {
		rec.sample = res.Payload
	}
}

func (f *fleet) hit(ctx context.Context, e *env, k int, rec *fleetRecord) {
	e.rep.ops(1, 0)
	res, d, accepted, _, _, err := f.submit(ctx, "hit", hotIndex-k, mustHot(e, k))
	switch {
	case err != nil:
	case res.Cache != "hit":
		err = fmt.Errorf("answered as cache %q, want a hit", res.Cache)
	case !bytes.Equal(res.Payload, f.hot[k]):
		err = fmt.Errorf("hit payload differs from the miss payload of hot key %d", k)
	}
	if err != nil {
		e.rep.check(fmt.Sprintf("hit-%d", k), err, "")
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.hit = append(rec.hit, d)
	rec.accept = append(rec.accept, accepted)
	rec.payload = append(rec.payload, float64(len(res.Payload))/1024)
}

// localPayload computes the result payload of miss i without the service:
// a serial scenario.RunSweep, encoded the way the server encodes results.
func localPayload(ctx context.Context, e *env, i int) ([]byte, error) {
	_, cfg, err := fleetConfig(e.seed, i)
	if err != nil {
		return nil, err
	}
	outs, err := scenario.RunSweep(ctx, cfg, fleetReps, scenario.SweepOptions{Workers: 1}, nil)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Outcomes []metrics.Outcome `json:"outcomes"`
		Summary  metrics.Report    `json:"summary"`
	}{outs, metrics.Aggregate(outs).Report()})
}

func runFleet(ctx context.Context, e *env) error {
	f, err := measureSetup(e, func(rep int) (*fleet, error) {
		return startFleet(ctx, e, nil, rep)
	}, (*fleet).stop)
	if err != nil {
		return err
	}
	untracedWin, tracedWin := e.phases()
	heap := startHeapSampler(5 * time.Millisecond)
	a0, c0 := gcCounters()
	start := time.Now()
	rec := f.loop(ctx, e, untracedWin, 1)
	elapsed := time.Since(start)
	a1, c1 := gcCounters()
	e.rep.set("heap_live_mb_max", heap.finish(), "MB", "peak of one-second medians")
	f.stop()

	windowStats(e, "job_ms", rec.miss) // a job of this workload is a miss
	windowStats(e, "hit_ms", rec.hit)
	windowStats(e, "first_progress_ms", rec.first)
	e.rep.set("reps_per_s", fleetClients*fleetReps/(median(secondsOf(rec.miss))+median(secondsOf(rec.hit))), "1/s",
		"clients × 8 reps ÷ (median miss + median hit); hits compute nothing")
	reportRef(e, rec.miss, rec.refs)
	rate := closedLoopRate(rec)
	e.rep.set("reps_per_ref", rate, "1/ref", "clients × 8 reps ÷ ((median miss + median hit) ÷ median reference time)")
	e.rep.set("jobs_per_s", float64(len(rec.miss)+len(rec.hit))/elapsed.Seconds(), "1/s", "misses and hits")

	pinned := map[int]string{}
	for i, h := range rec.hashes {
		pinned[i] = h
	}
	for k, p := range f.hot {
		pinned[hotIndex-k] = hashBytes(p)
	}
	checkPins(e, "serve-fleet", pinned)
	if rec.sample == nil {
		e.rep.check("local-sweep", errors.New("miss 0 did not complete"), "")
	} else {
		local, err := localPayload(ctx, e, 0)
		if err == nil && !bytes.Equal(local, rec.sample) {
			err = errors.New("miss 0 payload differs from a local scenario.RunSweep")
		}
		e.rep.check("local-sweep", err, "miss 0 byte-equal to a local serial RunSweep")
	}
	e.rep.check("hits-equal-misses", nil, fmt.Sprintf("%d hits byte-equal to their key's miss payload", len(rec.hit)))
	if !e.traced {
		return nil
	}
	reportGC(e, a0, c0, a1, c1, fleetReps*len(rec.miss))

	tr := newTracer()
	tf, err := startFleet(ctx, e, tr, setupReps)
	if err != nil {
		return err
	}
	before, err := tf.chunkRetries(ctx)
	if err != nil {
		tf.stop()
		return err
	}
	var (
		trec  *fleetRecord
		after float64
		rerr  error
	)
	shares, err := profiled(e, fmt.Sprintf("serve-fleet-seed%d", e.seed), func() {
		trec = tf.loop(ctx, e, tracedWin, fleetCounted/fleetClients)
		after, rerr = tf.chunkRetries(ctx)
	})
	tf.stop()
	if err = errors.Join(err, rerr); err != nil {
		return err
	}
	checkHashes("traced-equals-untraced", e, rec.hashes, trec.hashes)
	reportCPU(e, shares)
	reportFleetLayers(e, indexSpans(tr.closed()), trec, after-before)
	tracedRate := closedLoopRate(trec)
	e.rep.set("perfbench.trace_overhead", rate/tracedRate-1, "ratio", "untraced ÷ traced reps_per_ref − 1")
	return tr.write(spanPath(e, "serve-fleet"))
}

// closedLoopRate is the replications computed per reference time by the
// closed loop, from per-job medians rather than the run total: each
// client's cycle is one miss (fleetReps computed replications) and one hit.
func closedLoopRate(rec *fleetRecord) float64 {
	cycle := relMedian(rec.miss, rec.refs) + relMedian(rec.hit, rec.refs)
	return fleetClients * fleetReps / cycle
}

// reportFleetLayers derives the serve and dist layer metrics from the
// traced phase's spans and client records.
func reportFleetLayers(e *env, ix spanIndex, rec *fleetRecord, retries float64) {
	var handlerHit, missSelf, queue, sweeps, chunks, overhead []time.Duration
	for _, h := range ix.byName["serve.handler"] {
		parent := ix.byID[h.Parent]
		switch parent.Name {
		case "hit":
			handlerHit = append(handlerHit, h.dur())
			continue
		case "job":
		default:
			continue // a probe or metrics scrape, not a job
		}
		missSelf = append(missSelf, selfTime(h, ix.children[h.ID]))
		for _, sw := range ix.children[h.ID] {
			if sw.Name != "dist.sweep" {
				continue
			}
			if at, ok := rec.acceptAt[parent.Job]; ok {
				queue = append(queue, sw.Start-(parent.Start+at))
			}
			var longest time.Duration
			for _, ck := range ix.children[sw.ID] {
				longest = max(longest, ck.dur())
				chunks = append(chunks, ck.dur())
			}
			sweeps = append(sweeps, sw.dur())
			overhead = append(overhead, sw.dur()-longest)
		}
	}
	setMS := func(name string, ds []time.Duration, note string) {
		if len(ds) > 0 {
			e.rep.set(name, median(millis(ds)), "ms", fmt.Sprintf("%s, n=%d", note, len(ds)))
		}
	}
	setMS("serve.accept_ms_p50", rec.accept, "submit to the accepted line")
	setMS("serve.handler_ms_p50", handlerHit, "handler span, cache hits")
	setMS("serve.miss_self_ms_p50", missSelf, "miss handler span minus its dist.sweep")
	setMS("serve.queue_ms_p50", queue, "accepted line to the Distributor call")
	n := len(rec.miss) + len(rec.hit)
	e.rep.set("serve.cache_hit_ratio", float64(len(rec.hit))/float64(n), "ratio", fmt.Sprintf("of %d jobs", n))
	e.rep.set("serve.progress_ratio", float64(rec.progress)/float64(fleetReps*len(rec.miss)), "ratio", "progress lines ÷ reps")
	e.rep.set("serve.payload_kb_p50", median(rec.payload), "KB", "")
	setMS("dist.sweep_ms_p50", sweeps, "Coordinator.SweepRange")
	setMS("dist.chunk_ms_p50", chunks, "worker handler span, refusals included")
	setMS("dist.overhead_ms_p50", overhead, "sweep minus its longest chunk")
	if len(sweeps) > 0 {
		e.rep.set("dist.chunks_per_job", float64(len(chunks))/float64(len(sweeps)), "count", "chunk requests per miss, refusals included")
	}
	e.rep.set("dist.chunk_retries", retries, "count", "chunks re-queued after a refusal or failure, traced phase")
}

// spanHandler wraps an HTTP handler in a span named name whose parent is
// the span ID in the request's parentHeader; the handler's context carries
// the new span. With a nil tracer it returns h itself.
func spanHandler(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		p, _ := tr.lookup(parent)
		id := tr.begin(name, parent, p.Job)
		defer tr.end(id)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
	})
}

// stampParent is an http.RoundTripper that copies the span in the
// request's context onto the request as parentHeader, so the next hop's
// spans link to it. The program under test never sees the header's value.
type stampParent struct{ base http.RoundTripper }

func (s stampParent) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := spanFrom(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	}
	return s.base.RoundTrip(r)
}

// tracedDist wraps the coordinator in a "dist.sweep" span per call.
type tracedDist struct {
	c  *dist.Coordinator
	tr *tracer
}

func (d tracedDist) SweepRange(ctx context.Context, cfg scenario.Config, start, count int, onRep func(rep int, err error)) ([]metrics.Outcome, error) {
	parent := spanFrom(ctx)
	p, _ := d.tr.lookup(parent)
	id := d.tr.begin("dist.sweep", parent, p.Job)
	defer d.tr.end(id)
	return d.c.SweepRange(withSpan(ctx, id), cfg, start, count, onRep)
}

// RegisterMetrics keeps the coordinator's fabric metrics on the server's
// registry, as they are without the wrapper.
func (d tracedDist) RegisterMetrics(r *serve.Registry) { d.c.RegisterMetrics(r) }
