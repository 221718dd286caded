package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"delrep/internal/core"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/telemetry"
)

// Options configures a coordinator Server's routing. The job front end
// (admission, logging, telemetry) is configured by the serve.Options
// passed to New alongside.
type Options struct {
	// Workers are the delrepd base URLs the fleet shards over. Required.
	Workers []string
	// Replicas is the virtual-node count per worker on the hash ring;
	// <= 0 selects the default.
	Replicas int
	// ProbeInterval is the registry's health-probe cadence; <= 0
	// selects the default.
	ProbeInterval time.Duration
	// Retries bounds full failover rounds: a job tries every ready
	// worker in ring order up to Retries+1 times before failing.
	// <= 0 selects 2.
	Retries int
	// StealMargin is the work-stealing trigger: a home worker with
	// outstanding >= slots+StealMargin is a straggler, and its job is
	// stolen by the first ring-order alternative with a free slot.
	// <= 0 selects 2.
	StealMargin int
	// HTTPClient talks to workers for probes, submissions, and polls;
	// nil builds one with a sane timeout. SSE streams always use an
	// untimed variant of its transport.
	HTTPClient *http.Client
}

// slotsPerWorker is the coordinator's job slots per worker: delrepd's
// default -queue, so the coordinator can keep every worker's queue
// full before its own admission control pushes back.
const slotsPerWorker = 64

// Server is the fleet coordinator: a serve.Server — the same job front
// end as delrepd — over a runner engine whose Remote resolves every job
// through the ring. Create with New; serve its Handler; stop with
// Shutdown.
type Server struct {
	srv *serve.Server
	res *resolver
	mux *http.ServeMux
}

// resolver is the fleet's runner.Resolver: it routes a spec over the
// ring in failover order, probes the home shard's cache, submits the
// job to a worker, follows it to a terminal state, and fails over or
// steals as the registry's view of the workers demands.
type resolver struct {
	ring        *Ring
	reg         *Registry
	client      *http.Client // bounded-timeout calls (submit, probe, poll, cancel)
	stream      *http.Client // unbounded, for SSE watch streams
	logger      *slog.Logger
	retries     int
	stealMargin int

	nDispatch  atomic.Int64 // jobs handed to a worker queue
	nRetry     atomic.Int64 // failover re-dispatches after a worker loss
	nSteal     atomic.Int64 // jobs rerouted off a straggling home worker
	nProbeHit  atomic.Int64 // cache-tier probes answered 200
	nProbeMiss atomic.Int64 // cache-tier probes answered 404
}

// resolution is one Resolve call's routing state.
type resolution struct {
	ctx      context.Context
	body     []byte // the SubmitRequest forwarded verbatim to workers
	addr     string // runner.CacheAddr(key), for /v1/cache probes
	log      *slog.Logger
	progress func(done, total int64)
}

// errPermanent wraps failures that re-dispatching cannot fix (a spec
// the worker rejects, a deterministic simulation error): the job fails
// immediately instead of burning failover rounds.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }

// New builds a coordinator over the configured workers and starts its
// health registry. sopts configures the job front end; its Engine is
// replaced by the ring-resolving one.
func New(opts Options, sopts serve.Options) (*Server, error) {
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	if opts.StealMargin <= 0 {
		opts.StealMargin = 2
	}
	client := opts.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if sopts.Logger == nil {
		sopts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// One spelling per worker for the ring, the registry and the
	// resolver: "http://w:8080/" and "http://w:8080" are one worker.
	urls := make([]string, len(opts.Workers))
	for i, u := range opts.Workers {
		urls[i] = strings.TrimRight(u, "/")
	}
	ring := NewRing(urls, opts.Replicas)
	if len(ring.Members()) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	res := &resolver{
		ring: ring,
		reg:  NewRegistry(ring.Members(), opts.ProbeInterval, client, sopts.Logger),
		// SSE watch streams live as long as the job runs; strip any
		// overall timeout but keep the transport (and its dial/TLS
		// limits) so tests can inject one.
		client:      client,
		stream:      &http.Client{Transport: client.Transport},
		logger:      sopts.Logger,
		retries:     opts.Retries,
		stealMargin: opts.StealMargin,
	}
	sopts.Engine = runner.New(runner.Options{
		Workers: slotsPerWorker * len(ring.Members()),
		Remote:  res,
	})
	s := &Server{srv: serve.New(sopts), res: res, mux: http.NewServeMux()}
	s.mux.Handle("/", s.srv.Handler())
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler serving the coordinator API: the
// serve.Server's, with fleet health and metrics layered on.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the worker registry (for status surfaces and tests).
func (s *Server) Registry() *Registry { return s.res.reg }

// Shutdown drains the job front end exactly as delrepd does — queued
// jobs are cancelled, running ones get until ctx expires and are then
// cancelled, the cancellation propagating to their workers — and then
// stops the registry.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	s.res.reg.Close()
	return err
}

// Resolve implements runner.Resolver: route by ring order, probe the
// cache tier, submit, watch, and fail over on worker loss. The job's
// original serve.SubmitRequest, carried by ctx, is forwarded verbatim,
// parallel hint included.
func (r *resolver) Resolve(ctx context.Context, spec runner.Spec, _ int, progress func(done, total int64)) (runner.Remote, error) {
	req, ok := serve.RequestFromContext(ctx)
	if !ok {
		return runner.Remote{}, errors.New("fleet: the job context carries no submit request")
	}
	body, err := json.Marshal(req)
	if err != nil {
		return runner.Remote{}, err
	}
	key := runner.Key(spec.Cfg, spec.GPU, spec.CPU)
	c := &resolution{
		ctx:      ctx,
		body:     body,
		addr:     runner.CacheAddr(key),
		log:      r.logger.With("client", req.Client, "spec_key", runner.KeyHash(spec.Cfg, spec.GPU, spec.CPU)),
		progress: progress,
	}
	root := telemetry.SpanFromContext(ctx)
	var lastErr error = errors.New("no ready workers")
	for round := 0; round <= r.retries; round++ {
		if ctx.Err() != nil {
			return runner.Remote{}, ctx.Err()
		}
		cands, stolen := r.candidates(key)
		if stolen {
			r.nSteal.Add(1)
		}
		for _, worker := range cands {
			span := root.Start("fleet.attempt")
			span.Set("worker", worker)
			rem, err := r.attempt(c, worker)
			span.End()
			if err == nil {
				return rem, nil
			}
			if ctx.Err() != nil {
				return runner.Remote{}, ctx.Err()
			}
			var perm errPermanent
			if errors.As(err, &perm) {
				return runner.Remote{Worker: worker}, err
			}
			// A retryable attempt failure: the job falls over to the
			// next candidate (or the next round). Replay is safe
			// because simulations are deterministic and idempotent.
			lastErr = err
			r.nRetry.Add(1)
			c.log.WarnContext(ctx, "dispatch attempt failed", "worker", worker, "error", err)
		}
		// Every candidate failed (or none were ready): give the registry
		// a probe cycle to notice recoveries before the next round.
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
		}
	}
	if ctx.Err() != nil {
		return runner.Remote{}, ctx.Err()
	}
	return runner.Remote{}, fmt.Errorf("no worker could run the job after %d rounds: %v", r.retries+1, lastErr)
}

// candidates returns the ready workers in failover order for the key,
// applying the work-stealing policy: if the home worker is a straggler
// (outstanding ≥ slots + margin) and a later worker has a free slot,
// that idle worker is promoted to the front. The reported bool is true
// when a steal reordered the list.
func (r *resolver) candidates(key string) ([]string, bool) {
	seq := r.ring.Sequence(key)
	ready := make([]string, 0, len(seq))
	for _, w := range seq {
		if r.reg.Ready(w) {
			ready = append(ready, w)
		}
	}
	if len(ready) < 2 {
		return ready, false
	}
	home := r.reg.Info(ready[0])
	slots := home.Slots
	if slots < 1 {
		slots = 1 // no scrape yet: assume the minimum
	}
	if home.Outstanding < slots+r.stealMargin {
		return ready, false
	}
	for i := 1; i < len(ready); i++ {
		alt := r.reg.Info(ready[i])
		altSlots := alt.Slots
		if altSlots < 1 {
			altSlots = 1
		}
		if alt.Outstanding < altSlots {
			// Promote the idle worker; the straggler stays next in line
			// so a genuinely hot key still reaches its cache shard on
			// failover.
			reordered := append([]string{ready[i]}, append(append([]string{}, ready[:i]...), ready[i+1:]...)...)
			return reordered, true
		}
	}
	return ready, false
}

// attempt runs the job once against one worker. A nil error carries
// the result; otherwise the next candidate should be tried, unless the
// error is errPermanent or the job was cancelled.
func (r *resolver) attempt(c *resolution, worker string) (runner.Remote, error) {
	// Cache-tier probe first: if this shard already holds the result,
	// answer without consuming a worker queue slot.
	if res, digest, ok, err := r.probeCache(c, worker); err != nil {
		r.reg.MarkFailed(worker, err.Error())
		return runner.Remote{}, err
	} else if ok {
		c.log.Info("job served from cache tier", "worker", worker)
		return runner.Remote{Results: res, Digest: digest, Source: runner.SourceDisk, Worker: worker}, nil
	}

	view, err := r.submit(c, worker)
	if err != nil {
		return runner.Remote{}, err
	}
	r.nDispatch.Add(1)
	r.reg.AddOutstanding(worker, 1)
	defer r.reg.AddOutstanding(worker, -1)
	c.log.Info("job dispatched", "worker", worker, "remote_job", view.ID)

	term, err := r.watch(c, worker, view.ID)
	if err != nil {
		r.reg.MarkFailed(worker, err.Error())
		return runner.Remote{}, err
	}
	switch term.Status {
	case serve.StatusDone:
		rem, err := remoteFromView(term)
		rem.Worker = worker
		return rem, err
	case serve.StatusFailed:
		// A completed-but-failed simulation is deterministic: it would
		// fail identically anywhere, so failover cannot help.
		return runner.Remote{}, errPermanent{fmt.Errorf("worker %s: %s", worker, term.Error)}
	case serve.StatusCancelled:
		if c.ctx.Err() != nil {
			return runner.Remote{}, c.ctx.Err()
		}
		// The worker cancelled the job out from under us (it is
		// draining): fail over to a survivor.
		return runner.Remote{}, fmt.Errorf("worker %s cancelled the job (draining?)", worker)
	}
	return runner.Remote{}, fmt.Errorf("worker %s: job ended in unexpected state %q", worker, term.Status)
}

// probeCache checks one worker's disk-cache shard for the job's
// content address. ok=true carries the cached results; a nil error
// with ok=false is a plain miss; a non-nil error is a worker-health
// problem.
func (r *resolver) probeCache(c *resolution, worker string) (res core.Results, digest uint64, ok bool, err error) {
	r.nProbeMiss.Add(1) // corrected to a hit below
	ctx, cancel := context.WithTimeout(c.ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/cache/"+c.addr, nil)
	if err != nil {
		return res, 0, false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return res, 0, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		var entry serve.CacheEntry
		if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
			return res, 0, false, fmt.Errorf("decoding cache entry: %v", err)
		}
		if digest, err = strconv.ParseUint(entry.Digest, 16, 64); err != nil {
			return res, 0, false, fmt.Errorf("cache entry digest %q: %v", entry.Digest, err)
		}
		r.nProbeMiss.Add(-1)
		r.nProbeHit.Add(1)
		return entry.Results, digest, true, nil
	case resp.StatusCode == http.StatusNotFound:
		return res, 0, false, nil
	case resp.StatusCode >= 500:
		return res, 0, false, fmt.Errorf("cache probe: worker answered %d", resp.StatusCode)
	default:
		// An unexpected 4xx (an old worker without the endpoint answers
		// 404 via the mux anyway) — treat as a miss, not a failure.
		return res, 0, false, nil
	}
}

// submit POSTs the job's original request to a worker and returns the
// accepted job view.
func (r *resolver) submit(c *resolution, worker string) (serve.JobView, error) {
	ctx, cancel := context.WithTimeout(c.ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/jobs", bytes.NewReader(c.body))
	if err != nil {
		return serve.JobView{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		r.reg.MarkFailed(worker, err.Error())
		return serve.JobView{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var view serve.JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return serve.JobView{}, fmt.Errorf("decoding submit response: %v", err)
		}
		return view, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// Admission control pushed back: the worker is saturated, not
		// dead. Try the next candidate without marking it down.
		return serve.JobView{}, fmt.Errorf("worker %s is saturated (429)", worker)
	case resp.StatusCode == http.StatusBadRequest:
		return serve.JobView{}, errPermanent{fmt.Errorf("worker %s rejected the spec: %s", worker, readErrorBody(resp.Body))}
	default:
		err := fmt.Errorf("worker %s: submit answered %d", worker, resp.StatusCode)
		r.reg.MarkFailed(worker, err.Error())
		return serve.JobView{}, err
	}
}

func readErrorBody(r io.Reader) string {
	var body struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(r, 1<<16)).Decode(&body) == nil && body.Error != "" {
		return body.Error
	}
	return "(no detail)"
}

// watch follows the worker's SSE stream for the remote job, reporting
// its progress into the coordinator's future, until a terminal view
// arrives. A dropped stream falls back to one status poll so a worker
// that died between events is distinguished from one that merely
// closed the stream after the terminal event. If the coordinator job
// is cancelled mid-watch, the cancellation is propagated to the worker
// via DELETE before returning.
func (r *resolver) watch(c *resolution, worker, remoteID string) (serve.JobView, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, worker+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := r.stream.Do(req)
	if err != nil {
		if c.ctx.Err() != nil {
			r.propagateCancel(c, worker, remoteID)
			return serve.JobView{Status: serve.StatusCancelled}, nil
		}
		return serve.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobView{}, fmt.Errorf("worker %s: events answered %d", worker, resp.StatusCode)
	}

	var terminal *serve.JobView
	err = readSSE(resp.Body, func(event string, data []byte) bool {
		switch event {
		case "progress":
			var pv serve.ProgressView
			if json.Unmarshal(data, &pv) == nil {
				c.progress(pv.CyclesDone, pv.CyclesTotal)
			}
		case "status":
			var view serve.JobView
			if json.Unmarshal(data, &view) != nil {
				return true
			}
			if view.Progress != nil {
				c.progress(view.Progress.CyclesDone, view.Progress.CyclesTotal)
			}
			if view.Status.Terminal() {
				terminal = &view
				return false
			}
		}
		return true
	})
	if c.ctx.Err() != nil && (terminal == nil || !terminal.Status.Terminal()) {
		r.propagateCancel(c, worker, remoteID)
		return serve.JobView{Status: serve.StatusCancelled}, nil
	}
	if terminal != nil {
		return *terminal, nil
	}
	if err == nil {
		err = errors.New("event stream ended without a terminal status")
	}
	// The stream broke. One poll decides: a reachable worker tells us
	// the job's true state; an unreachable one means failover.
	view, perr := r.pollJob(worker, remoteID)
	if perr != nil {
		return serve.JobView{}, fmt.Errorf("worker %s: %v (then poll failed: %v)", worker, err, perr)
	}
	if !view.Status.Terminal() {
		return serve.JobView{}, fmt.Errorf("worker %s: %v (job still %s)", worker, err, view.Status)
	}
	return view, nil
}

// pollJob fetches the remote job's current view once.
func (r *resolver) pollJob(worker, remoteID string) (serve.JobView, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return serve.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobView{}, fmt.Errorf("status poll answered %d", resp.StatusCode)
	}
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return serve.JobView{}, err
	}
	return view, nil
}

// propagateCancel forwards a coordinator-side cancellation to the
// worker holding the job. Best effort: the job is already cancelled
// from the client's point of view, and an unreachable worker will
// cancel it anyway when it notices (or has died with it).
func (r *resolver) propagateCancel(c *resolution, worker, remoteID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, worker+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		c.log.WarnContext(ctx, "cancel propagation failed", "worker", worker, "error", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.log.InfoContext(ctx, "cancel propagated", "worker", worker, "remote_job", remoteID)
}

// readSSE parses a text/event-stream, invoking fn per event; fn
// returning false stops the read. Returns the stream error (nil on
// clean EOF).
func readSSE(r io.Reader, fn func(event string, data []byte) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || len(data) > 0 {
				if !fn(event, data) {
					return nil
				}
			}
			event, data = "", nil
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = append(data, line[6:]...)
		}
	}
	return sc.Err()
}
