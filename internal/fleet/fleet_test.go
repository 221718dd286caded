package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"delrep/internal/core"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// shortSpec finishes in well under a second; vary the seed to defeat
// memoization between tests (each test file shares one process).
func shortSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 2000, Seed: seed}
}

// slowSpec runs for a few seconds (~12k cycles/s) — long enough to
// kill its worker mid-run, short enough to finish after failover.
func slowSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 50_000, Seed: seed}
}

// foreverSpec will not finish within any test timeout; it exists to be
// cancelled.
func foreverSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 500_000_000, Seed: seed}
}

// directResult computes the reference bytes a fleet-served result must
// match: the canonical Result of an in-process run of the same spec.
func directResult(t *testing.T, spec simspec.Spec) []byte {
	t.Helper()
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	a := core.RunAudit(cfg, norm.GPU, norm.CPU)
	b, err := json.Marshal(simspec.NewResult(norm, a.Results, a.Digest))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testWorker is one delrepd stand-in backed by its own cache dir.
type testWorker struct {
	srv *serve.Server
	ts  *httptest.Server
	eng *runner.Engine
}

func newWorker(t *testing.T, dir string) *testWorker {
	t.Helper()
	return newWorkerWith(t, dir, serve.Options{})
}

// newWorkerWith is newWorker with the daemon's serve options.
func newWorkerWith(t *testing.T, dir string, opts serve.Options) *testWorker {
	t.Helper()
	var cache *runner.DiskCache
	if dir != "" {
		var err error
		if cache, err = runner.OpenDiskCache(dir); err != nil {
			t.Fatal(err)
		}
	}
	eng := runner.New(runner.Options{Workers: 2, Cache: cache})
	opts.Engine = eng
	srv := serve.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return &testWorker{srv: srv, ts: ts, eng: eng}
}

func newCoordinator(t *testing.T, workers ...*testWorker) (*Server, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	return newCoordinatorURLs(t, urls...)
}

func newCoordinatorURLs(t *testing.T, urls ...string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{
		Workers:       urls,
		ProbeInterval: 25 * time.Millisecond,
		Retries:       3,
	}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	// Wait for the registry's first probe sweep so tests never race
	// worker readiness.
	waitFor(t, "coordinator ready", func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	})
	return s, ts
}

func submitWait(t *testing.T, base string, spec simspec.Spec) serve.JobView {
	t.Helper()
	view, err := trySubmitWait(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func trySubmitWait(base string, spec simspec.Spec) (serve.JobView, error) {
	return trySubmitRequest(base+"/v1/jobs?wait=1", serve.SubmitRequest{Spec: spec, Client: "fleet-test"}, http.StatusOK)
}

// submitAsync submits without waiting and returns the accepted view.
func submitAsync(t *testing.T, base string, spec simspec.Spec) serve.JobView {
	t.Helper()
	view, err := trySubmitRequest(base+"/v1/jobs", serve.SubmitRequest{Spec: spec, Client: "fleet-test"}, http.StatusAccepted)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func trySubmitRequest(url string, req serve.SubmitRequest, want int) (serve.JobView, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return serve.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return serve.JobView{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
	}
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return serve.JobView{}, err
	}
	return view, nil
}

// getView fetches one job's view; ok is false on any error.
func getView(url string) (view serve.JobView, ok bool) {
	resp, err := http.Get(url)
	if err != nil {
		return view, false
	}
	defer resp.Body.Close()
	return view, resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&view) == nil
}

// listJobs returns a daemon's GET /v1/jobs listing (nil on error).
func listJobs(base string) []serve.JobView {
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if json.NewDecoder(resp.Body).Decode(&list) != nil {
		return nil
	}
	return list.Jobs
}

// runningJob returns the first running job on the worker, if any.
func runningJob(w *testWorker) (serve.JobView, bool) {
	for _, v := range listJobs(w.ts.URL) {
		if v.Status == serve.StatusRunning {
			return v, true
		}
	}
	return serve.JobView{}, false
}

// metrics fetches a daemon's /metrics page.
func metrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// cancelJob DELETEs a job and discards the answer.
func cancelJob(t *testing.T, url string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func resultBytes(t *testing.T, view serve.JobView) []byte {
	t.Helper()
	if view.Status != serve.StatusDone {
		t.Fatalf("job %s ended %s (%s)", view.ID, view.Status, view.Error)
	}
	if view.Result == nil {
		t.Fatalf("job %s: done without a result", view.ID)
	}
	b, err := json.Marshal(*view.Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The fleet's core invariant: a coordinator-served result is
// byte-identical to a direct in-process run of the same spec, and the
// view says which worker served it.
func TestFleetByteIdentity(t *testing.T) {
	w1 := newWorker(t, t.TempDir())
	w2 := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w1, w2)

	spec := shortSpec(501)
	want := directResult(t, spec)
	view := submitWait(t, ts.URL, spec)
	if got := resultBytes(t, view); !bytes.Equal(got, want) {
		t.Fatalf("fleet result differs from direct run:\n fleet:  %s\n direct: %s", got, want)
	}
	if view.Worker != w1.ts.URL && view.Worker != w2.ts.URL {
		t.Fatalf("view.Worker = %q, want one of the worker URLs", view.Worker)
	}
	if view.Source != "executed" {
		t.Fatalf("first run source = %q, want executed", view.Source)
	}

	// A resubmission routes to the same worker (consistent hashing) and
	// is served from its cache, still byte-identical.
	again := submitWait(t, ts.URL, spec)
	if again.Worker != view.Worker {
		t.Fatalf("resubmission routed to %q, first run to %q", again.Worker, view.Worker)
	}
	if again.Source == "executed" {
		t.Fatalf("resubmission source = executed, want a cache hit")
	}
	if got := resultBytes(t, again); !bytes.Equal(got, want) {
		t.Fatalf("cached fleet result differs from direct run")
	}
}

// Killing a worker mid-run must fail the job over to the survivor and
// still deliver byte-identical results — the replay is idempotent
// because simulations are deterministic.
func TestFleetFailoverMidRun(t *testing.T) {
	w1 := newWorker(t, t.TempDir())
	w2 := newWorker(t, t.TempDir())
	coord, ts := newCoordinator(t, w1, w2)

	spec := slowSpec(502)
	type res struct {
		view serve.JobView
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := trySubmitWait(ts.URL, spec)
		ch <- res{v, err}
	}()

	// Wait until the job is running on a worker, then kill that worker.
	var victim, survivor *testWorker
	waitFor(t, "job dispatched", func() bool {
		if _, ok := runningJob(w1); ok {
			victim, survivor = w1, w2
			return true
		}
		if _, ok := runningJob(w2); ok {
			victim, survivor = w2, w1
			return true
		}
		return false
	})
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got, want := resultBytes(t, r.view), directResult(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("failover result differs from direct run:\n fleet:  %s\n direct: %s", got, want)
	}
	if r.view.Worker != survivor.ts.URL {
		t.Fatalf("job finished on %q, want survivor %q", r.view.Worker, survivor.ts.URL)
	}

	// The retry counter recorded the failover and the registry marked
	// the victim down.
	var retries int
	for _, line := range strings.Split(metrics(t, ts.URL), "\n") {
		fmt.Sscanf(line, "delrepfleet_retries_total %d", &retries)
	}
	if retries == 0 {
		t.Error("failover did not count a retry round")
	}
	if coord.Registry().Ready(victim.ts.URL) {
		t.Error("dead worker still marked ready")
	}
}

// A batch whose worker dies mid-sweep completes on the survivor with
// every result byte-identical to direct runs.
func TestFleetFailoverMidSweep(t *testing.T) {
	w1 := newWorker(t, t.TempDir())
	w2 := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w1, w2)

	specs := make([]simspec.Spec, 6)
	for i := range specs {
		specs[i] = shortSpec(510 + int64(i))
	}
	type res struct {
		i    int
		view serve.JobView
		err  error
	}
	ch := make(chan res, len(specs))
	for i, sp := range specs {
		go func(i int, sp simspec.Spec) {
			v, err := trySubmitWait(ts.URL, sp)
			ch <- res{i, v, err}
		}(i, sp)
	}
	// Kill one worker while the batch is in flight. Whichever jobs were
	// routed to it must fail over; the rest are unaffected.
	time.Sleep(50 * time.Millisecond)
	w1.ts.CloseClientConnections()
	w1.ts.Close()

	got := make([][]byte, len(specs))
	for range specs {
		r := <-ch
		if r.err != nil {
			t.Fatalf("spec %d: %v", r.i, r.err)
		}
		got[r.i] = resultBytes(t, r.view)
	}
	for i, sp := range specs {
		if want := directResult(t, sp); !bytes.Equal(got[i], want) {
			t.Errorf("spec %d: fleet result differs from direct run", i)
		}
	}
}

// A worker's warm disk cache is a queryable shard: the coordinator
// answers from it via the cache probe without dispatching a job.
func TestFleetCacheTierProbe(t *testing.T) {
	dir := t.TempDir()
	warm := newWorker(t, dir)

	// Warm the worker's cache with a direct submission.
	spec := shortSpec(520)
	view := submitWait(t, warm.ts.URL, spec)
	want := resultBytes(t, view)

	// A fresh coordinator serves the same spec from the cache tier.
	_, ts := newCoordinator(t, warm)
	served := submitWait(t, ts.URL, spec)
	if served.Source != "disk" {
		t.Fatalf("source = %q, want disk", served.Source)
	}
	if got := resultBytes(t, served); !bytes.Equal(got, want) {
		t.Fatalf("cache-tier result differs from the worker's own")
	}
	body := metrics(t, ts.URL)
	if !strings.Contains(string(body), `delrepfleet_cache_probes_total{result="hit"} 1`) {
		t.Errorf("metrics do not record the cache-probe hit:\n%s", body)
	}
	if !strings.Contains(string(body), "delrepfleet_dispatch_total 0") {
		t.Errorf("cache-tier hit should not have dispatched a job:\n%s", body)
	}
}

// The fleet client plugs into the engine as a Resolver: remote results
// flow through dedup/batch ordering, count under the source the fleet
// reports, and land in the local disk cache.
func TestClientResolverThroughEngine(t *testing.T) {
	w1 := newWorker(t, t.TempDir())
	w2 := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w1, w2)

	spec := shortSpec(530)
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	localDir := t.TempDir()
	localCache, err := runner.OpenDiskCache(localDir)
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(runner.Options{
		Workers: 2,
		Cache:   localCache,
		Remote:  NewClient(ts.URL, "fleet-test", nil),
	})
	run := eng.Submit(runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU}).Wait()
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Worker == "" {
		t.Fatal("run.Worker empty: the run did not go through the fleet")
	}
	a := core.RunAudit(cfg, norm.GPU, norm.CPU)
	if run.Results != a.Results || run.Digest != a.Digest {
		t.Fatal("fleet-resolved run differs from a direct run")
	}
	if run.Source != runner.SourceExecuted {
		t.Fatalf("source = %v, want executed (the fleet executed it)", run.Source)
	}
	if c := eng.Snapshot(); c.Executed != 1 {
		t.Fatalf("counters = %+v, want the remote execution counted as executed", c)
	}

	// The remote result was written into the local cache: a fresh
	// engine over the same dir needs no fleet at all.
	cache2, err := runner.OpenDiskCache(localDir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := runner.New(runner.Options{Workers: 1, Cache: cache2})
	run2 := eng2.Submit(runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU}).Wait()
	if run2.Err != nil || run2.Source != runner.SourceDisk {
		t.Fatalf("warm local rerun source = %v (err %v), want disk", run2.Source, run2.Err)
	}
	if run2.Results != run.Results || run2.Digest != run.Digest {
		t.Fatal("locally cached remote result differs")
	}
}

// Specs the wire form cannot express run locally (ErrNotRemotable
// fallback), so hybrid sweeps still work against a fleet.
func TestClientResolverLocalFallback(t *testing.T) {
	w := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w)

	spec := shortSpec(540)
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoC.VCsPerClass = 3 // a knob the wire spec does not carry

	eng := runner.New(runner.Options{Workers: 1, Remote: NewClient(ts.URL, "fleet-test", nil)})
	run := eng.Submit(runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU}).Wait()
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Worker != "" {
		t.Fatalf("non-remotable spec ran on worker %q, want local execution", run.Worker)
	}
	a := core.RunAudit(cfg, norm.GPU, norm.CPU)
	if run.Results != a.Results || run.Digest != a.Digest {
		t.Fatal("local-fallback run differs from a direct run")
	}
	// The worker saw no job.
	resp, err := http.Get(w.ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("worker saw %d jobs, want 0", len(list.Jobs))
	}
}

// Cancelling a coordinator job propagates to the worker: the remote
// job stops running instead of burning a slot to completion.
func TestFleetCancelPropagation(t *testing.T) {
	w := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w)

	view := submitAsync(t, ts.URL, foreverSpec(550))
	var remote serve.JobView
	waitFor(t, "job running on worker", func() bool {
		var ok bool
		remote, ok = runningJob(w)
		return ok
	})

	cancelJob(t, ts.URL+"/v1/jobs/"+view.ID)

	// Both ends reach cancelled: the coordinator job and the worker job.
	waitFor(t, "coordinator job cancelled", func() bool {
		v, ok := getView(ts.URL + "/v1/jobs/" + view.ID)
		return ok && v.Status == serve.StatusCancelled
	})
	waitFor(t, "worker job cancelled", func() bool {
		v, ok := getView(w.ts.URL + "/v1/jobs/" + remote.ID)
		return ok && v.Status == serve.StatusCancelled
	})
}

// The coordinator forwards the request as submitted: the worker's job
// carries the client's priority and identity, and the spec's parallel
// hint is granted by the worker's own cap.
func TestFleetForwardsRequest(t *testing.T) {
	w := newWorkerWith(t, t.TempDir(), serve.Options{MaxRunParallel: 2})
	_, ts := newCoordinator(t, w)

	spec := shortSpec(560)
	spec.Parallel = 2
	view, err := trySubmitRequest(ts.URL+"/v1/jobs?wait=1",
		serve.SubmitRequest{Spec: spec, Priority: "high", Client: "sweep-7"}, http.StatusOK)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != serve.StatusDone || view.Priority != "high" || view.Client != "sweep-7" {
		t.Fatalf("coordinator view = %s/%s/%s, want done/high/sweep-7", view.Status, view.Priority, view.Client)
	}
	jobs := listJobs(w.ts.URL)
	if len(jobs) != 1 {
		t.Fatalf("worker saw %d jobs, want 1", len(jobs))
	}
	if j := jobs[0]; j.Priority != "high" || j.Client != "sweep-7" || j.Parallel != 2 {
		t.Fatalf("worker job priority/client/parallel = %s/%s/%d, want high/sweep-7/2",
			j.Priority, j.Client, j.Parallel)
	}
}

// A running coordinator job reports its worker's progress, both on
// GET /v1/jobs/{id} and on its event stream.
func TestFleetRunningProgress(t *testing.T) {
	w := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w)

	view := submitAsync(t, ts.URL, foreverSpec(570))
	defer cancelJob(t, ts.URL+"/v1/jobs/"+view.ID)
	waitFor(t, "coordinator job progress", func() bool {
		v, ok := getView(ts.URL + "/v1/jobs/" + view.ID)
		return ok && v.Status == serve.StatusRunning && v.Progress != nil && v.Progress.CyclesDone > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var done int64
	readSSE(resp.Body, func(event string, data []byte) bool {
		var pv serve.ProgressView
		if event == "progress" && json.Unmarshal(data, &pv) == nil {
			done = pv.CyclesDone
		}
		return done == 0
	})
	if done == 0 {
		t.Fatal("event stream carried no progress before the deadline")
	}
}

// A worker URL spelled with a trailing slash names the same worker to
// the ring, the registry and the resolver, so jobs run instead of
// failing with "no ready workers" behind a ready /readyz.
func TestFleetWorkerURLTrailingSlash(t *testing.T) {
	w := newWorker(t, t.TempDir())
	_, ts := newCoordinatorURLs(t, w.ts.URL+"/")

	spec := shortSpec(580)
	view := submitWait(t, ts.URL, spec)
	if got, want := resultBytes(t, view), directResult(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("fleet result differs from direct run:\n fleet:  %s\n direct: %s", got, want)
	}
	if view.Worker != w.ts.URL {
		t.Fatalf("view.Worker = %q, want %q", view.Worker, w.ts.URL)
	}
}
