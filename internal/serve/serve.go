// Package serve exposes the simulator as a long-lived HTTP service:
// simulation-as-a-service on top of the deterministic parallel engine
// in internal/runner.
//
// The daemon amortizes exactly what design-space sweeps need: many
// clients submitting overlapping configuration points against one warm
// content-addressed result cache. A job that hits the cache (on disk
// or deduplicated in-process) short-circuits execution and returns a
// result byte-identical — same stats digest, same float bit patterns —
// to a direct delrepsim run of the same spec.
//
// The API (all JSON unless noted):
//
//	POST   /v1/jobs             submit a spec; 202 with the job, or 429
//	                            (Retry-After) when admission control
//	                            rejects it. ?wait=1 blocks until the
//	                            job finishes; a client that disconnects
//	                            while waiting cancels its job.
//	GET    /v1/jobs             list jobs, newest last
//	GET    /v1/jobs/{id}        job status, progress, and result
//	GET    /v1/jobs/{id}/events server-sent events: status transitions
//	                            and cycle-level progress
//	GET    /v1/jobs/{id}/trace  the job's wall-clock span tree as Chrome
//	                            trace-event JSON (?format=tree for the
//	                            nested form); requires Options.Telemetry
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/cache/{key}      cached result by content address
//	                            (runner.CacheAddr); 404 on miss. Lets a
//	                            fleet coordinator use this daemon's warm
//	                            disk cache as one shard of a distributed
//	                            cache tier without enqueueing a job
//	GET    /healthz             liveness (always ok while serving)
//	GET    /readyz              readiness (503 once draining)
//	GET    /metrics             text exposition of queue depth, worker
//	                            utilization, cache hit ratio, admission
//	                            rejections, disk-cache outcomes, and
//	                            latency histograms per priority class
//	GET    /debug/jobs          flight recorder: the last N completed
//	                            jobs with their span trees (JSON)
//	GET    /debug/status        human-oriented HTML status page
//	GET    /debug/pprof/        net/http/pprof (Options.EnablePprof)
//
// Telemetry is strictly wall-clock instrumentation of the serving
// layers: span timestamps never enter the simulation, so a traced
// job's results and determinism digest are byte-identical to an
// untraced (or direct delrepsim) run of the same spec.
//
// Admission control is two-layered: a bounded queue (a full queue
// answers 429 with a Retry-After estimated from recent job latency)
// and a per-client in-flight cap, so one greedy sweep cannot starve
// interactive users. Scheduling is strict priority with FIFO order
// within each level.
//
// Cancellation is cooperative end to end: DELETE (or a dropped ?wait
// connection) cancels the job's context, the runner engine propagates
// it into the simulation's cycle-window checkpoints (core.RunControl),
// and the freed worker slot immediately dispatches the next queued
// job. Cancelling one job never disturbs another that shares its
// deduplicated future.
//
// The same Server is the fleet coordinator (internal/fleet): there the
// engine's Options.Remote resolves each job on a worker daemon instead
// of simulating it. Every job context carries its SubmitRequest
// (RequestFromContext) so the resolver can forward it verbatim, a done
// job's view names the worker that served it, and the metric series
// are named delrepfleet_* instead of delrepd_*, so the coordinator's
// page never collides with a worker's.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"sync"
	"time"

	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/stats"
	"delrep/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Engine runs the simulations. Required.
	Engine *runner.Engine
	// Workers bounds concurrently running jobs; <= 0 uses the engine's
	// worker count.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; a full queue rejects
	// submissions with 429. <= 0 selects 64.
	QueueDepth int
	// ClientInFlight caps one client's queued+running jobs; 0 disables
	// the cap.
	ClientInFlight int
	// CacheMaxBytes, when > 0, prunes the engine's disk cache (oldest
	// entries first) to this size after each executed job, bounding a
	// long-lived daemon's disk use.
	CacheMaxBytes int64
	// ProgressInterval is the SSE progress-event cadence for running
	// jobs; <= 0 selects 500ms.
	ProgressInterval time.Duration
	// Logger receives structured logs (one record per job transition,
	// admission rejection, prune, …); nil discards them. Every job
	// record carries job/client/spec-key attrs, so one job's lifecycle
	// greps out of a mixed stream.
	Logger *slog.Logger
	// Telemetry records a wall-clock span tree per job (exported by
	// GET /v1/jobs/{id}/trace) and feeds the flight recorder behind
	// /debug/jobs. Off by default: a nil trace costs one pointer check
	// per instrumentation site and nothing else.
	Telemetry bool
	// FlightSize bounds the flight recorder's ring of completed-job
	// summaries (<= 0 selects 128). Only meaningful with Telemetry.
	FlightSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// CPU/heap/goroutine profiling of the daemon.
	EnablePprof bool
	// MaxRunParallel caps the intra-run tile parallelism a job's spec
	// may request ("parallel" field). <= 0 disables intra-run
	// parallelism entirely: every job runs serial, exactly as before
	// the tile tick existed. The cap is admission-aware — a requested
	// N is additionally clamped to the cap divided by the number of
	// running jobs at dispatch, so a busy daemon never oversubscribes
	// cores it is already using to run jobs side by side. Clamping is
	// behavior-neutral: results are bit-identical at any worker count,
	// so this knob trades wall time only.
	MaxRunParallel int
}

// Server is the simulation daemon. Create with New; serve its
// Handler; stop with Shutdown.
type Server struct {
	eng           *runner.Engine
	name          string // metric prefix and page title: delrepd, or delrepfleet over a remote engine
	workers       int
	queueDepth    int
	clientCap     int
	maxParallel   int
	cacheMax      int64
	progressEvery time.Duration
	logger        *slog.Logger
	telemetry     bool
	flight        *telemetry.FlightRecorder // nil when telemetry is off
	started       time.Time
	mux           *http.ServeMux
	wg            sync.WaitGroup
	pruneMu       sync.Mutex

	mu           sync.Mutex
	cond         *sync.Cond
	jobs         map[string]*Job
	order        []*Job // submission order, for listing
	queue        [numPriorities][]*Job
	queuedCount  int
	runningCount int
	inflight     map[string]int // client -> queued+running jobs
	seq          int
	draining     bool
	sseSubs      int // live SSE subscriber channels

	latency      *stats.Histogram                // completed-job wall seconds (all priorities)
	queueWait    [numPriorities]*stats.Histogram // admission → dispatch, per priority
	execTime     [numPriorities]*stats.Histogram // dispatch → terminal, per priority
	totalTime    [numPriorities]*stats.Histogram // submit → terminal, per priority
	statusCounts map[Status]int64                // terminal outcomes
	rejects      map[string]int64                // admission rejections by reason
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Engine == nil {
		panic("serve: Options.Engine is required")
	}
	s := &Server{
		eng:           opts.Engine,
		name:          "delrepd",
		workers:       opts.Workers,
		queueDepth:    opts.QueueDepth,
		clientCap:     opts.ClientInFlight,
		maxParallel:   opts.MaxRunParallel,
		cacheMax:      opts.CacheMaxBytes,
		progressEvery: opts.ProgressInterval,
		logger:        opts.Logger,
		telemetry:     opts.Telemetry,
		jobs:          map[string]*Job{},
		inflight:      map[string]int{},
		// 60 one-second buckets; sweeps that run longer land in +Inf.
		latency:      stats.NewHistogram(60, 1),
		statusCounts: map[Status]int64{},
		rejects:      map[string]int64{},
	}
	//simlint:ignore rngsource daemon start timestamp, outside any simulation
	s.started = time.Now()
	if opts.Engine.Remote() != nil {
		s.name = "delrepfleet"
	}
	for p := 0; p < int(numPriorities); p++ {
		s.queueWait[p] = stats.NewHistogram(60, 1)
		s.execTime[p] = stats.NewHistogram(60, 1)
		s.totalTime[p] = stats.NewHistogram(60, 1)
	}
	if s.workers <= 0 {
		s.workers = opts.Engine.Workers()
	}
	if s.queueDepth <= 0 {
		s.queueDepth = 64
	}
	if s.progressEvery <= 0 {
		s.progressEvery = 500 * time.Millisecond
	}
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.telemetry {
		s.flight = telemetry.NewFlightRecorder(opts.FlightSize)
	}
	s.cond = sync.NewCond(&s.mu)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	s.mux.HandleFunc("GET /debug/status", s.handleDebugStatus)
	if opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the concurrent-job bound.
func (s *Server) Workers() int { return s.workers }

// SubmitRequest is the POST /v1/jobs body — shared wire format:
// delrepd and the fleet coordinator accept the same shape, and the
// coordinator forwards it (spec as submitted, priority, client)
// verbatim to the worker it routes the job to.
type SubmitRequest struct {
	Spec     simspec.Spec `json:"spec"`
	Priority string       `json:"priority,omitempty"`
	Client   string       `json:"client,omitempty"`
}

// requestKey keys the SubmitRequest carried by a job's context.
type requestKey struct{}

// RequestFromContext returns the request a job was submitted with
// (Client filled in from X-Delrep-Client when the body left it empty).
// Every job context carries it, and the runner hands the first
// submitter's context values to its Resolver, so a fleet resolver can
// forward the request verbatim.
func RequestFromContext(ctx context.Context) (SubmitRequest, bool) {
	req, ok := ctx.Value(requestKey{}).(SubmitRequest)
	return req, ok
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The trace opens before decoding so http.receive covers the full
	// request-side cost; it is discarded again on any rejection path.
	var tr *telemetry.Trace
	var recv *telemetry.Span
	if s.telemetry {
		tr = telemetry.New("job")
		recv = tr.Root().Start("http.receive")
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, norm, err := req.Spec.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Client == "" {
		req.Client = r.Header.Get("X-Delrep-Client")
	}
	client := req.Client
	specKey := runner.KeyHash(cfg, norm.GPU, norm.CPU)
	recv.End()

	adm := tr.Root().Start("admission")
	s.mu.Lock()
	if s.draining {
		s.rejects["draining"]++
		s.mu.Unlock()
		s.logger.InfoContext(r.Context(), "submit rejected", "reason", "draining", "client", client, "spec_key", specKey)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.clientCap > 0 && s.inflight[client] >= s.clientCap {
		retry := s.retryAfterLocked()
		s.rejects["client_cap"]++
		s.mu.Unlock()
		s.logger.InfoContext(r.Context(), "submit rejected", "reason", "client_cap", "client", client, "spec_key", specKey)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"client %q already has %d jobs in flight (cap %d)", client, s.clientCap, s.clientCap)
		return
	}
	if s.queuedCount >= s.queueDepth {
		retry := s.retryAfterLocked()
		s.rejects["queue_full"]++
		s.mu.Unlock()
		s.logger.InfoContext(r.Context(), "submit rejected", "reason", "queue_full", "client", client, "spec_key", specKey)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"job queue is full (%d queued)", s.queueDepth)
		return
	}
	s.seq++
	//simlint:ignore ctxflow the job outlives the submitting request by design; cancellation comes from DELETE /jobs/{id} or drain, not the HTTP connection
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), requestKey{}, req))
	//simlint:ignore rngsource daemon job timestamp, outside any simulation
	created := time.Now()
	j := &Job{
		id:      fmt.Sprintf("j%06d", s.seq),
		client:  client,
		prio:    prio,
		spec:    norm,
		cfg:     cfg,
		specKey: specKey,
		// Resolve zeroed norm.Parallel (execution hints are not
		// identity), so the request's hint is carried separately.
		reqParallel: req.Spec.Parallel,
		ctx:         ctx,
		cancel:      cancel,
		doneCh:      make(chan struct{}),
		status:      StatusQueued,
		created:     created,
		subs:        map[chan sseEvent]struct{}{},
		trace:       tr,
	}
	j.log = s.logger.With("job", j.id, "client", client, "spec_key", specKey)
	if tr != nil {
		tr.Root().Set("job", j.id)
		tr.Root().Set("client", client)
		tr.Root().Set("spec_key", specKey)
		tr.Root().Set("priority", prio.String())
		adm.End()
		j.spanQueue = tr.Root().Start("queue.wait")
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.queue[prio] = append(s.queue[prio], j)
	s.queuedCount++
	s.inflight[client]++
	view := j.viewLocked()
	s.cond.Signal()
	s.mu.Unlock()
	j.log.InfoContext(r.Context(), "job queued",
		"gpu", norm.GPU, "cpu", norm.CPU, "scheme", norm.Scheme, "priority", prio.String())

	if r.URL.Query().Has("wait") {
		select {
		case <-j.doneCh:
			s.mu.Lock()
			view = j.viewLocked()
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, view)
		case <-r.Context().Done():
			// The waiting client went away: its job goes with it, so a
			// dropped connection cannot pin a worker slot.
			s.cancelJob(j)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, view)
}

// retryAfterLocked estimates seconds until a queue slot frees up:
// recent mean job latency times the queue backlog per worker.
func (s *Server) retryAfterLocked() int {
	mean := s.latency.Mean()
	if s.latency.Count() == 0 || mean <= 0 {
		return 1
	}
	est := int(math.Ceil(mean * float64(s.queuedCount+1) / float64(s.workers)))
	if est < 1 {
		est = 1
	}
	if est > 600 {
		est = 600
	}
	return est
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, j := range s.order {
		v := j.viewLocked()
		v.Result = nil // keep listings light; fetch the job for results
		views = append(views, v)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	view := j.viewLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if j.status.Terminal() {
		view := j.viewLocked()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, view)
		return
	}
	s.mu.Unlock()
	s.cancelJob(j)
	s.mu.Lock()
	view := j.viewLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// cancelJob cancels a job in any non-terminal state: a queued job
// finishes immediately as cancelled; a running job's context is
// cancelled and its worker completes the transition at the next
// simulation checkpoint.
func (s *Server) cancelJob(j *Job) {
	s.mu.Lock()
	if j.status == StatusQueued {
		s.finishQueuedLocked(j, "cancelled before start")
		s.mu.Unlock()
		j.cancel()
		return
	}
	s.mu.Unlock()
	// Running (or already terminal, in which case this is a no-op):
	// the worker owns the bookkeeping.
	j.cancel()
}

// finishQueuedLocked retires a job that never started. Callers hold
// s.mu and must call j.cancel() afterwards (outside the transition) to
// release the context's resources.
func (s *Server) finishQueuedLocked(j *Job, msg string) {
	j.status = StatusCancelled
	j.errMsg = msg
	//simlint:ignore rngsource daemon job timestamp, outside any simulation
	j.finished = time.Now()
	j.spanQueue.End()
	j.spanQueue = nil
	s.queuedCount--
	s.dropInflightLocked(j.client)
	s.statusCounts[StatusCancelled]++
	s.totalTime[j.prio].Add(j.finished.Sub(j.created).Seconds())
	s.notifyLocked(j)
	close(j.doneCh)
	s.retireTrace(j, j.viewLocked(), StatusCancelled)
	j.log.Info("job cancelled while queued", "reason", msg)
}

func (s *Server) dropInflightLocked(client string) {
	if s.inflight[client]--; s.inflight[client] <= 0 {
		delete(s.inflight, client)
	}
}

// worker dispatches queued jobs until shutdown drains the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// next blocks until a job is dispatchable and marks it running.
// Highest priority wins; FIFO within a priority. Returns nil when the
// server is draining and the queue is empty.
func (s *Server) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for p := numPriorities - 1; p >= 0; p-- {
			for len(s.queue[p]) > 0 {
				j := s.queue[p][0]
				s.queue[p] = s.queue[p][1:]
				if j.status != StatusQueued {
					continue // cancelled while queued; already retired
				}
				if j.ctx.Err() != nil {
					// Cancelled through its context (a vanished ?wait
					// client) without going through cancelJob.
					s.finishQueuedLocked(j, "cancelled before start")
					continue
				}
				s.queuedCount--
				j.status = StatusRunning
				//simlint:ignore rngsource daemon job timestamp, outside any simulation
				j.started = time.Now()
				j.spanQueue.End()
				j.spanQueue = nil
				s.queueWait[j.prio].Add(j.started.Sub(j.created).Seconds())
				s.runningCount++
				j.parallel = s.effectiveParallelLocked(j.reqParallel)
				s.notifyLocked(j)
				return j
			}
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// effectiveParallelLocked clamps a job's requested intra-run
// parallelism against the server cap and the current load. The
// admission-aware term divides the cap by the number of running jobs
// (including the one being dispatched), so concurrent jobs share the
// tile-worker budget instead of each grabbing the full cap. Because
// results are bit-identical at any worker count, the clamp can never
// change what a job returns — only how fast.
func (s *Server) effectiveParallelLocked(requested int) int {
	if requested <= 1 || s.maxParallel <= 1 {
		return 1
	}
	eff := requested
	if eff > s.maxParallel {
		eff = s.maxParallel
	}
	if share := s.maxParallel / s.runningCount; eff > share {
		eff = share
	}
	if eff < 1 {
		eff = 1
	}
	return eff
}

// runJob executes one dispatched job on the engine and retires it.
func (s *Server) runJob(j *Job) {
	rspec := runner.Spec{Cfg: j.cfg, GPU: j.spec.GPU, CPU: j.spec.CPU}
	var root *telemetry.Span
	if j.trace != nil {
		root = j.trace.Root()
	}
	submitSpan := root.Start("runner.submit")
	runCtx := telemetry.ContextWithSpan(j.ctx, submitSpan)
	var run runner.Run
	var joined bool
	for {
		// j.parallel was fixed at dispatch by the same goroutine (next
		// runs in this worker), so the unlocked read is ordered.
		var fut *runner.Future
		fut, joined = s.eng.SubmitCtxParallel(runCtx, rspec, j.parallel)
		s.mu.Lock()
		j.fut = fut
		s.mu.Unlock()
		run = fut.Wait()
		if run.Err == nil || j.ctx.Err() != nil || !errors.Is(run.Err, context.Canceled) {
			break
		}
		// The shared future was cancelled by a different job's waiter
		// between our submission and completion; this job is still
		// wanted, so resubmit (the failed future has left the memo).
	}
	if joined && run.Err == nil {
		// An earlier job's future answered: this job ran nowhere.
		run.Source, run.Workers = runner.SourceMemo, 0
	}
	submitSpan.Set("source", run.Source.String())
	submitSpan.End()

	//simlint:ignore rngsource daemon job timestamp, outside any simulation
	now := time.Now()
	s.mu.Lock()
	j.finished = now
	s.runningCount--
	s.dropInflightLocked(j.client)
	s.latency.Add(now.Sub(j.started).Seconds())
	s.execTime[j.prio].Add(now.Sub(j.started).Seconds())
	s.totalTime[j.prio].Add(now.Sub(j.created).Seconds())
	j.run = run
	switch {
	case run.Err == nil:
		j.status = StatusDone
	case j.ctx.Err() != nil && errors.Is(run.Err, context.Canceled):
		j.status = StatusCancelled
		j.errMsg = "cancelled"
	default:
		j.status = StatusFailed
		j.errMsg = run.Err.Error()
	}
	s.statusCounts[j.status]++
	// encode measures rendering the terminal job view — the bytes every
	// poller and ?wait response will receive from here on.
	if enc := root.Start("encode"); enc != nil {
		if b, err := json.Marshal(j.viewLocked()); err == nil {
			enc.Set("bytes", len(b))
		}
		enc.End()
	}
	reply := root.Start("reply")
	s.notifyLocked(j)
	close(j.doneCh)
	reply.End()
	status, errMsg := j.status, j.errMsg
	view := j.viewLocked()
	s.mu.Unlock()

	s.retireTrace(j, view, status)
	if errMsg != "" {
		j.log.InfoContext(runCtx, "job finished", "status", status, "error", errMsg,
			"seconds", now.Sub(j.started).Seconds())
	} else {
		j.log.InfoContext(runCtx, "job finished", "status", status, "source", run.Source.String(),
			"seconds", now.Sub(j.started).Seconds())
	}
	if status == StatusDone && run.Source == runner.SourceExecuted {
		s.maybePrune()
	}
}

// retireTrace closes a finished job's trace and files its flight-
// recorder entry. Callers may hold s.mu (lock order is s.mu →
// trace.mu, never reversed); the job fields read here are immutable
// once the job is terminal.
func (s *Server) retireTrace(j *Job, view JobView, status Status) {
	if j.trace == nil {
		return
	}
	j.trace.Root().Set("outcome", string(status))
	j.trace.End()
	rec := telemetry.JobRecord{
		ID:       j.id,
		Client:   j.client,
		Priority: j.prio.String(),
		Spec:     fmt.Sprintf("%s+%s %s", j.spec.GPU, j.spec.CPU, j.spec.Scheme),
		SpecKey:  j.specKey,
		Outcome:  string(status),
		Source:   view.Source,
		Error:    view.Error,
		Created:  j.created,
		TotalUS:  j.finished.Sub(j.created).Microseconds(),
		Trace:    j.trace.Snapshot(),
	}
	if !j.started.IsZero() {
		rec.QueueUS = j.started.Sub(j.created).Microseconds()
		rec.ExecUS = j.finished.Sub(j.started).Microseconds()
	} else {
		rec.QueueUS = rec.TotalUS // cancelled while queued
	}
	s.flight.Record(rec)
}

// maybePrune bounds the disk cache after an executed (cache-growing)
// run. Skipped when a prune is already in progress.
func (s *Server) maybePrune() {
	cache := s.eng.DiskCache()
	if s.cacheMax <= 0 || cache == nil {
		return
	}
	if !s.pruneMu.TryLock() {
		return
	}
	defer s.pruneMu.Unlock()
	removed, freed, err := cache.Prune(s.cacheMax)
	if err != nil {
		s.logger.Warn("cache prune failed", "error", err)
	} else if removed > 0 {
		s.logger.Info("cache pruned",
			"removed", removed, "freed_bytes", freed, "max_bytes", s.cacheMax)
	}
}

// handleTrace exports a job's telemetry span tree. The default format
// is Chrome trace-event JSON (load in chrome://tracing or Perfetto);
// ?format=tree answers the nested SpanView rendering instead. An
// unfinished job's open spans are snapshotted as running to "now".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if j.trace == nil {
		writeError(w, http.StatusNotFound, "telemetry is disabled; start the daemon with -telemetry")
		return
	}
	if r.URL.Query().Get("format") == "tree" {
		writeJSON(w, http.StatusOK, j.trace.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := j.trace.WriteChrome(w); err != nil {
		s.logger.WarnContext(r.Context(), "trace export failed", "job", j.id, "error", err)
	}
}

// Shutdown stops admission, cancels every queued job, and drains
// running jobs. If ctx expires first, running jobs are cancelled at
// their next simulation checkpoint and Shutdown returns ctx's error
// once the workers exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var retired []*Job
	for p := range s.queue {
		for _, j := range s.queue[p] {
			if j.status == StatusQueued {
				s.finishQueuedLocked(j, "server shutting down")
				retired = append(retired, j)
			}
		}
		s.queue[p] = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range retired {
		j.cancel()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.order {
			if j.status == StatusRunning {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
