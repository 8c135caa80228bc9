package serve

// The job runner: the one execution path of the service. Every job — run,
// sweep or trace, cache hit or miss, with or without a durable store —
// executes in a background goroutine under the server's base context, not
// the submitting request's, so a disconnected client leaves the job
// running and every response (the POST stream and
// GET /v1/jobs/{id}/stream?offset=N alike) is just a tail of the job's
// journal. The journal is deterministic: line 0 is the accepted line; a
// miss continues with progress lines 1..reps in strict replication order;
// every job that completes ends with the result line and the result
// payload. A resumed stream stitched at any offset is therefore
// byte-identical to an uninterrupted one.
//
// Execution is segmented: each storedSegmentReps-replication slice runs
// through scenario.RunSweepRange (or the fleet's SweepRange; a "run" job
// is a single one-replication segment), its outcomes are journaled, and
// only then do its progress lines enter the stream journal. The outcomes
// journal is always at or ahead of the progress lines, so recovery
// re-executes at most one segment and reconciles the stream journal to the
// frontier before continuing.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
	"blackdp/internal/trace"
)

// Cancellation causes distinguish a DELETE (terminal: the journal gets an
// error line) from a drain (resumable with a durable store: the journal is
// left untouched for the next process).
var (
	errCanceledByClient = errors.New("serve: canceled by client")
	errShutdown         = errors.New("serve: server shutting down")
)

// storedSegmentReps is the durability granularity: how many replications
// run between journal appends. Small enough that a crash loses little,
// large enough that journaling stays off the hot path.
const storedSegmentReps = 8

// tenantCtxKey carries the submitting tenant's name through execution so
// the distributor can stamp it onto worker chunk requests.
type tenantCtxKey struct{}

// WithTenant returns ctx carrying the tenant name.
func WithTenant(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, name)
}

// TenantName reports the tenant name carried by ctx ("" if none).
func TenantName(ctx context.Context) string {
	name, _ := ctx.Value(tenantCtxKey{}).(string)
	return name
}

// liveStream is the in-memory mirror of one job's stream journal: the
// replay source for every tail, with a broadcast channel so tails block
// without polling.
type liveStream struct {
	mu     sync.Mutex
	lines  [][]byte
	closed bool
	wake   chan struct{}
}

func newLiveStream(lines [][]byte) *liveStream {
	return &liveStream{lines: lines, wake: make(chan struct{})}
}

func (st *liveStream) append(line []byte) {
	st.mu.Lock()
	st.lines = append(st.lines, line)
	close(st.wake)
	st.wake = make(chan struct{})
	st.mu.Unlock()
}

func (st *liveStream) close() {
	st.mu.Lock()
	if !st.closed {
		st.closed = true
		close(st.wake)
		st.wake = make(chan struct{})
	}
	st.mu.Unlock()
}

func (st *liveStream) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.lines)
}

// endsWithResult reports whether the last journaled line is a result line:
// the previous process died between the result line and its payload.
func (st *liveStream) endsWithResult() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	var l streamLine
	return len(st.lines) > 0 && json.Unmarshal(st.lines[len(st.lines)-1], &l) == nil && l.Type == "result"
}

// tail writes journal lines from offset onward, blocking for new lines
// until the stream closes or the client goes away. Lines are written
// byte-exact with a trailing newline and flushed individually, so a
// client stitching tails at any offsets reconstructs the journal exactly.
func (st *liveStream) tail(ctx context.Context, w http.ResponseWriter, offset int) {
	i := offset
	for {
		st.mu.Lock()
		var batch [][]byte
		if i < len(st.lines) {
			batch = st.lines[i:len(st.lines):len(st.lines)]
		}
		closed := st.closed
		wake := st.wake
		st.mu.Unlock()
		for _, line := range batch {
			if _, err := w.Write(append(append(make([]byte, 0, len(line)+1), line...), '\n')); err != nil {
				return
			}
		}
		if len(batch) > 0 {
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			i += len(batch)
			continue
		}
		if closed {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		}
	}
}

// storedRun is one job's execution state.
type storedRun struct {
	job    *Job
	spec   jobSpec
	tenant *tenantState
	ctx    context.Context
	cancel context.CancelCauseFunc
	// hit marks a cache follower: it computes nothing and waits on entry.
	// Otherwise entry, when non-nil, is the in-flight cache entry this run
	// leads and must complete (trace jobs lead none).
	hit      bool
	entry    *Entry
	outcomes []metrics.Outcome // completed replications, in replication order
	traceLog *trace.Log
}

// newRun wires a job's context under the server base context and binds
// DELETE to it.
func (s *Server) newRun(job *Job, spec jobSpec, t *tenantState, outcomes []metrics.Outcome) *storedRun {
	run := &storedRun{job: job, spec: spec, tenant: t, outcomes: outcomes}
	run.ctx, run.cancel = context.WithCancelCause(s.baseCtx)
	job.bindCancel(func() { run.cancel(errCanceledByClient) })
	return run
}

func (run *storedRun) journalRaw(s *Server, line []byte) error {
	if err := s.store.AppendStream(run.job.ID, line); err != nil {
		return err
	}
	run.job.stream.append(line)
	return nil
}

func (run *storedRun) journal(s *Server, l streamLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return run.journalRaw(s, b)
}

// reconcile brings the stream journal up to the outcome frontier: the
// accepted line if the journal is empty, then any progress lines whose
// outcomes the previous process journaled but whose stream lines it did
// not reach before dying.
func (run *storedRun) reconcile(s *Server) error {
	stream := run.job.stream
	if stream.count() == 0 {
		if err := run.journal(s, streamLine{Type: "accepted", Job: run.job.ID,
			Key: run.spec.key, Cache: cacheMarker(run.hit), Total: run.spec.reps}); err != nil {
			return err
		}
	}
	for rep := stream.count() - 1; rep < len(run.outcomes); rep++ {
		if err := run.journal(s, streamLine{Type: "progress", Job: run.job.ID,
			Rep: rep, Done: rep + 1, Total: run.spec.reps}); err != nil {
			return err
		}
	}
	return nil
}

// start launches a job's runner goroutine once its journal holds at least
// the accepted line. wtr is its admission wait (nil when it already holds a
// slot, and for cache followers, which take none).
func (s *Server) start(run *storedRun, wtr *waiter) {
	s.runnersWG.Add(1)
	go s.runJob(run, wtr)
}

// runJob is the background goroutine of one job whose journal is
// reconciled: either the wait for a leader's cached result or fair-share
// admission and segmented execution, then terminal journaling.
func (s *Server) runJob(run *storedRun, wtr *waiter) {
	defer s.runnersWG.Done()
	if run.hit {
		payload, err := run.entry.Wait(run.ctx)
		if err != nil {
			s.finishErr(run, err)
			return
		}
		s.finishDone(run, payload)
		return
	}
	if wtr != nil {
		s.queued.Add(1)
		select {
		case <-wtr.ready:
			s.queued.Add(-1)
		case <-run.ctx.Done():
			s.queued.Add(-1)
			if !s.adm.cancelWait(wtr) {
				s.adm.release(run.tenant)
			}
			s.finishErr(run, context.Cause(run.ctx))
			return
		}
	}
	// Go runs a goroutine it has just started or woken ahead of every
	// goroutine already waiting for a CPU. Execution is CPU-bound and can
	// hold a core for a whole segment, so the runner first yields that
	// place: concurrent submissions the HTTP layer is reading are admitted
	// (or refused) while this job runs, not after it.
	runtime.Gosched()
	run.job.setStatus(StatusRunning)
	s.running.Add(1)
	began := time.Now()
	err := s.execute(run)
	s.running.Add(-1)
	s.adm.release(run.tenant)
	if err != nil {
		s.finishErr(run, err)
		return
	}
	payload, err := json.Marshal(resultPayload{Outcomes: run.outcomes, Summary: metrics.Aggregate(run.outcomes).Report()})
	if err != nil {
		s.finishErr(run, err)
		return
	}
	run.outcomes = nil // the payload holds them now
	s.mSeconds.Observe(time.Since(began).Seconds())
	s.finishDone(run, payload)
}

// execute runs the remaining replications in journaled segments.
func (s *Server) execute(run *storedRun) error {
	ctx := WithTenant(run.ctx, run.tenant.cfg.Name)
	for len(run.outcomes) < run.spec.reps {
		frontier := len(run.outcomes)
		count := min(storedSegmentReps, run.spec.reps-frontier)
		outcomes, err := s.segment(ctx, run, frontier, count)
		if err != nil {
			return err
		}
		lines := make([][]byte, len(outcomes))
		for i, o := range outcomes {
			if lines[i], err = json.Marshal(o); err != nil {
				return err
			}
		}
		if err := s.store.AppendOutcomes(run.job.ID, lines); err != nil {
			return err
		}
		run.outcomes = append(run.outcomes, outcomes...)
		for rep := frontier; rep < len(run.outcomes); rep++ {
			if err := run.journal(s, streamLine{Type: "progress", Job: run.job.ID,
				Rep: rep, Done: rep + 1, Total: run.spec.reps}); err != nil {
				return err
			}
		}
	}
	return nil
}

// segment executes replications [start, start+count) of the job. A "run"
// job is one replication of the config as given, with its event log
// retained when the job asked for a trace; sweep segments go through the
// fleet when one is configured and alive, locally otherwise. Outcomes come
// back in replication order either way.
func (s *Server) segment(ctx context.Context, run *storedRun, start, count int) ([]metrics.Outcome, error) {
	onRep := func(int, error) { s.mReps.Inc() }
	spec := run.spec
	if spec.kind == "run" {
		cfg := spec.cfg
		cfg.Trace = spec.trace
		world, err := scenario.Build(cfg)
		if err != nil {
			return nil, err
		}
		o, err := world.RunContext(ctx)
		onRep(0, err)
		if err != nil {
			return nil, err
		}
		if spec.trace {
			snap := world.Env.Tracer.Snapshot()
			run.traceLog = &snap
		}
		return []metrics.Outcome{o}, nil
	}
	if d := s.cfg.Distributor; d != nil {
		outcomes, err := d.SweepRange(ctx, spec.cfg, start, count, onRep)
		if err == nil || !errors.Is(err, ErrNoWorkers) {
			return outcomes, err
		}
	}
	pool := spec.pool
	if pool <= 0 {
		pool = s.cfg.SweepWorkers
	}
	return scenario.RunSweepRange(ctx, spec.cfg, start, count,
		scenario.SweepOptions{Workers: pool, OnRep: onRep}, nil)
}

// finishDone journals the terminal lines of a completed job and publishes
// its payload. The payload slice is shared — not copied — by the job
// record, the cache and the stream. Completion is idempotent across
// restarts: a process killed between the result line and the payload line
// leaves a journal the next process finishes without duplicating either.
func (s *Server) finishDone(run *storedRun, payload []byte) {
	cache := cacheMarker(run.hit)
	var lines [][]byte
	if !run.job.stream.endsWithResult() {
		res, err := json.Marshal(streamLine{Type: "result", Job: run.job.ID, Cache: cache, Total: run.spec.reps})
		if err != nil {
			s.finishErr(run, err)
			return
		}
		lines = append(lines, res)
	}
	lines = append(lines, payload)
	for _, l := range lines {
		if err := s.store.AppendStream(run.job.ID, l); err != nil {
			s.finishErr(run, err)
			return
		}
	}
	switch {
	case run.hit:
	case run.entry != nil:
		s.cache.Complete(run.entry, payload, nil)
		run.entry = nil
	default:
		s.cache.Put(run.spec.key, payload)
	}
	run.job.setCache(cache)
	run.job.finish(StatusDone, "", payload, run.traceLog)
	s.mJobs.Inc(StatusDone)
	for _, l := range lines {
		run.job.stream.append(l)
	}
	run.end()
}

// finishErr ends a job that did not complete. A drain with a durable store
// leaves the journal untouched — the job resumes on restart; anything else
// (DELETE, an execution error, a store write failure, a drain with nothing
// to resume from) is terminal and journals an error line.
func (s *Server) finishErr(run *storedRun, err error) {
	if c := context.Cause(run.ctx); c != nil {
		err = c // the job's context ended: its cause is the reason
	}
	if !run.hit && run.entry != nil {
		s.cache.Complete(run.entry, nil, err)
		run.entry = nil
	}
	if errors.Is(err, errShutdown) && s.durable {
		run.end()
		return
	}
	status := StatusFailed
	if errors.Is(err, errCanceledByClient) {
		status = StatusCanceled
	}
	msg := err.Error()
	_ = run.journal(s, streamLine{Type: "error", Job: run.job.ID, Error: msg})
	run.job.finish(status, msg, nil, nil)
	s.mJobs.Inc(status)
	run.end()
}

// cacheMarker is the "cache" field of a job's stream lines and record.
func cacheMarker(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// end closes the job's stream and releases its context.
func (run *storedRun) end() {
	run.job.stream.close()
	run.cancel(nil)
}

// specFromStored rebuilds the validated jobSpec of a recovered job.
func specFromStored(sp StoredSpec) (jobSpec, error) {
	cfg, err := scenario.DecodeConfig(sp.Config)
	if err != nil {
		return jobSpec{}, err
	}
	fp, err := scenario.Fingerprint(cfg)
	if err != nil {
		return jobSpec{}, err
	}
	return jobSpec{kind: sp.Kind, cfg: cfg, reps: sp.Reps, pool: sp.Pool, trace: sp.Trace,
		key: fmt.Sprintf("%s/%d/%s", sp.Kind, sp.Reps, fp), rawCfg: sp.Config}, nil
}

// journalState classifies a recovered stream journal: terminal if it holds
// an error line, or a result line followed by its payload line. hit reports
// a cache follower's journal (its accepted line is marked "hit").
func journalState(lines [][]byte) (terminal, hit bool, status, errMsg string, payload []byte) {
	for i, b := range lines {
		var l streamLine
		if json.Unmarshal(b, &l) != nil {
			continue
		}
		switch l.Type {
		case "accepted":
			hit = l.Cache == "hit"
		case "error":
			status = StatusFailed
			if l.Error == errCanceledByClient.Error() {
				status = StatusCanceled
			}
			return true, hit, status, l.Error, nil
		case "result":
			if i+1 < len(lines) {
				return true, hit, StatusDone, "", lines[i+1]
			}
			// Result line without its payload: the previous process died
			// between the two appends; completion is idempotent, resume.
			return false, hit, "", "", nil
		}
	}
	return false, hit, "", "", nil
}

// recoverStored reloads every stored job at startup: terminal jobs
// reappear in the registry (done results re-enter the cache), unfinished
// jobs resume — leaders re-enter admission, forced past the queue bound
// because restarts must never drop work, and continue at their outcome
// frontier; cache followers wait for their key again once every leader
// holds its cache entry.
func (s *Server) recoverStored() error {
	stored, err := s.store.Load()
	if err != nil {
		return err
	}
	var maxSeq uint64
	var followers []*storedRun
	for _, sj := range stored {
		if n := jobSeq(sj.Spec.ID); n > maxSeq {
			maxSeq = n
		}
		spec, err := specFromStored(sj.Spec)
		if err != nil {
			return fmt.Errorf("serve: recovering %s: %w", sj.Spec.ID, err)
		}
		job := s.register(&Job{ID: sj.Spec.ID, Kind: spec.kind, Key: spec.key, Reps: spec.reps,
			Tenant: sj.Spec.Tenant, status: StatusQueued, created: time.Now(), stream: newLiveStream(sj.Stream)})
		terminal, hit, status, errMsg, payload := journalState(sj.Stream)
		job.setCache(cacheMarker(hit))
		if terminal {
			job.stream.close()
			job.finish(status, errMsg, payload, nil)
			if status == StatusDone && payload != nil {
				s.cache.Put(spec.key, payload)
			}
			continue
		}
		outcomes := make([]metrics.Outcome, len(sj.Outcomes))
		for i, b := range sj.Outcomes {
			if err = json.Unmarshal(b, &outcomes[i]); err != nil {
				err = fmt.Errorf("serve: corrupt stored outcome: %w", err)
				break
			}
		}
		t := s.adm.lookup(sj.Spec.Tenant)
		run := s.newRun(job, spec, t, outcomes)
		switch {
		case err != nil:
		case t == nil:
			// The keyfile changed across the restart and this job's tenant
			// is gone; it cannot be re-admitted fairly, so it fails loudly
			// rather than running outside every quota.
			err = errors.New("tenant " + sj.Spec.Tenant + " is no longer configured")
		default:
			err = run.reconcile(s)
		}
		switch {
		case err != nil:
			s.finishErr(run, err)
		case hit:
			followers = append(followers, run)
		default:
			if !spec.trace {
				if e, leader := s.cache.Begin(spec.key); leader {
					run.entry = e
				}
			}
			wtr, _ := s.adm.acquire(t, true)
			s.start(run, wtr)
		}
	}
	// A follower whose key nobody computes any more (its leader failed or
	// was evicted) leads it itself.
	for _, run := range followers {
		e, leader := s.cache.Begin(run.spec.key)
		run.entry = e
		var wtr *waiter
		if leader {
			wtr, _ = s.adm.acquire(run.tenant, true)
		} else {
			run.hit = true
		}
		s.start(run, wtr)
	}
	for {
		cur := s.seq.Load()
		if cur >= maxSeq || s.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	return nil
}

// handleStream is GET /v1/jobs/{id}/stream?offset=N: a byte-exact replay
// of the job's journal from line offset N, tailing live lines until the
// job finishes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t, ok := s.authorize(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	job := s.lookup(id)
	if job == nil || !s.visible(job, t) {
		WriteError(w, http.StatusNotFound, "not_found", "no such job: "+id, 0)
		return
	}
	offset := 0
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "bad_request",
				"offset must be a non-negative integer", 0)
			return
		}
		offset = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	job.stream.tail(r.Context(), w, offset)
}
