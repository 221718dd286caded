package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"delrep/internal/core"
	"delrep/internal/serve"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

const (
	// blockOps groups each client's submissions: one per block, at a
	// seeded position, is a new spec (a miss); the others repeat a spec
	// the client already completed (hits). A fixed share, rather than a
	// per-op coin, keeps the miss count, and with it throughput, from
	// varying by seed.
	blockOps = 5
	// minPathSamples leaves minBeyond samples beyond p95 on each path.
	minPathSamples = 200
	// refSpecs is how many served miss specs are re-run in-process.
	refSpecs = 5
	// setupLaunches is how many times the daemon pair is launched to
	// measure set-up; the last pair serves the load.
	setupLaunches = 11
)

// missSpec is a short NN + vips Delegated Replies run: each new seed is
// a cache miss that the daemon must simulate.
func missSpec(seed int64) engineSpec {
	return resolve(simspec.Spec{
		GPU: "NN", CPU: "vips", Scheme: "delegated", Topo: "mesh",
		Warmup: 1000, Cycles: 3000, Seed: seed,
	})
}

// child is a daemon the benchmark started.
type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

// stop sends SIGTERM and waits for the daemon to exit (SIGKILL after
// 10 s).
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

func (b *bench) stopChildren() {
	b.mu.Lock()
	kids := b.children
	b.children = nil
	b.mu.Unlock()
	for i := len(kids) - 1; i >= 0; i-- {
		kids[i].stop()
	}
}

// start launches one daemon binary with its output in the scratch
// directory.
func (b *bench) start(name string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(b.workDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.binDir, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+b.workDir)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	b.mu.Lock()
	b.children = append(b.children, c)
	b.mu.Unlock()
	return c, nil
}

// freeAddr reserves a loopback port for a daemon.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stack of one delrepd worker fronted by one delrepfleet.
type daemons struct {
	worker, fleet         string // base URLs
	workerProc, fleetProc *child
	profile               string // delrepd CPU profile path, when traced
}

// startDaemons launches delrepd with its default slots and a fresh
// cache, then a delrepfleet fronting it as its only worker, and waits
// until both answer /readyz with 200.
func (b *bench) startDaemons(tag string, profiled bool) (*daemons, time.Duration, error) {
	t0 := time.Now()
	wAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	fAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemons{worker: "http://" + wAddr, fleet: "http://" + fAddr}
	args := []string{"-addr", wAddr, "-cache", filepath.Join(b.workDir, tag+"-cache"), "-drain", "5s"}
	if profiled {
		d.profile = filepath.Join(b.workDir, tag+"-cpu.prof")
		args = append(args, "-cpuprofile", d.profile)
	}
	if d.workerProc, err = b.start("delrepd", args...); err != nil {
		return nil, 0, err
	}
	if err := waitReady(d.worker, d.workerProc); err != nil {
		return nil, 0, err
	}
	if d.fleetProc, err = b.start("delrepfleet", "-addr", fAddr, "-worker", d.worker, "-drain", "5s"); err != nil {
		return nil, 0, err
	}
	if err := waitReady(d.fleet, d.fleetProc); err != nil {
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

func (d *daemons) stop() {
	d.fleetProc.stop()
	d.workerProc.stop()
}

func waitReady(base string, c *child) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before it was ready (see its log)", c.name)
		default:
		}
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// Polled finely: launch takes ~20 ms, so a coarse poll would
		// dominate the set-up time it measures.
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready after 30s", c.name)
}

// servedJob is one closed-loop submission.
type servedJob struct {
	fleet  bool
	seed   int64
	hit    bool   // repeats a spec this client already completed
	tag    string // the request's client field, unique per fleet job
	lat    time.Duration
	id     string
	source string
	result []byte // compact canonical result JSON
}

// load is one closed-loop measurement against a daemon pair.
type load struct {
	jobs    []servedJob
	wall    time.Duration
	refused int
	failed  int
	misses  []int64 // completed miss seeds in (client, order) order
}

// runLoad drives nproc closed-loop clients. Each client alternates
// between the worker and the fleet; four submissions in five repeat
// one of the client's completed specs, the fifth is a new seed. The
// op sequence is a function of the workload seed alone.
// Clients stop once the measuring time is spent and each path has
// minPathSamples samples (or at three times the measuring time).
func (b *bench) runLoad(d *daemons, clients int) *load {
	ld := &load{}
	var mu sync.Mutex
	var direct, viaFleet atomic.Int64
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	defer hc.CloseIdleConnections()
	start := time.Now()
	enough := func() bool {
		el := time.Since(start)
		return el >= 3*b.seconds ||
			el >= b.seconds && direct.Load() >= minPathSamples && viaFleet.Load() >= minPathSamples
	}
	perClient := make([][]int64, clients) // each client's completed misses
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(c) + 1))
			missAt := 0 // the first op of a client must be a miss
			for op := 0; !enough(); op++ {
				if op%blockOps == 0 && op > 0 {
					missAt = rng.Intn(blockOps)
				}
				j := servedJob{fleet: (op+c)%2 == 1}
				if done := perClient[c]; op%blockOps != missAt && len(done) > 0 {
					j.seed = done[rng.Intn(len(done))]
					j.hit = true
				} else {
					j.seed = 1 + rng.Int63n(1<<40)
				}
				base := d.worker
				j.tag = fmt.Sprintf("bench-%d", c)
				if j.fleet {
					base = d.fleet
					j.tag = fmt.Sprintf("bench-%d-%d", c, op)
				}
				status, err := submit(hc, base, &j)
				switch {
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					mu.Lock()
					ld.refused++
					mu.Unlock()
					b.op(false)
					continue
				case err != nil:
					mu.Lock()
					ld.failed++
					mu.Unlock()
					b.op(false)
					fmt.Fprintf(os.Stderr, "perfbench: served job (seed %d, fleet=%v): %v\n", j.seed, j.fleet, err)
					continue
				}
				b.op(true)
				if !j.hit {
					perClient[c] = append(perClient[c], j.seed)
				}
				if j.fleet {
					viaFleet.Add(1)
				} else {
					direct.Add(1)
				}
				mu.Lock()
				ld.jobs = append(ld.jobs, j)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ld.wall = time.Since(start)
	for _, seeds := range perClient {
		ld.misses = append(ld.misses, seeds...)
	}
	return ld
}

// submit posts one job with ?wait=1 and fills in its latency, id,
// source and canonical result.
func submit(hc *http.Client, base string, j *servedJob) (int, error) {
	body, err := json.Marshal(serve.SubmitRequest{Spec: missSpec(j.seed).spec, Client: j.tag})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := hc.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.lat = time.Since(t0)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s answered %d: %s", base, resp.StatusCode, bytes.TrimSpace(data))
	}
	var view struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Source string          `json:"source"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding job view: %w", err)
	}
	if view.Status != "done" || len(view.Result) == 0 {
		return resp.StatusCode, fmt.Errorf("job %s ended %s: %s", view.ID, view.Status, view.Error)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, view.Result); err != nil {
		return resp.StatusCode, err
	}
	j.id, j.source, j.result = view.ID, view.Source, compact.Bytes()
	return resp.StatusCode, nil
}

// checkResults requires every result for one spec to be byte-identical,
// whichever path and cache state served it.
func (b *bench) checkResults(ld *load) map[int64][]byte {
	first := map[int64][]byte{}
	for _, j := range ld.jobs {
		want, ok := first[j.seed]
		if !ok {
			first[j.seed] = j.result
			continue
		}
		if !bytes.Equal(want, j.result) {
			b.fail("served-mix: seed %d (fleet=%v, source=%s) returned a result that differs from an earlier one", j.seed, j.fleet, j.source)
		}
	}
	return first
}

// runServedMix measures set-up several times, runs the closed loop on
// the last daemon pair, checks the results against each other and
// against in-process runs, and reports the metrics.
func runServedMix(b *bench) error {
	clients := runtime.NumCPU()
	b.facts["clients"] = clients
	var setups []float64
	var d *daemons
	for i := 0; i < setupLaunches; i++ {
		var err error
		var took time.Duration
		if d, took, err = b.startDaemons(fmt.Sprintf("setup%d", i), false); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupLaunches-1 {
			d.stop()
		}
	}
	ld := b.runLoad(d, clients)
	results := b.checkResults(ld)
	var spans *spanStats
	if b.trace {
		var err error
		if spans, err = b.collect(d, ld); err != nil {
			d.stop()
			return err
		}
	}
	d.stop()
	b.reportLoad(ld, setups)

	nsPerHop := b.referenceRuns(ld, results)
	if !b.trace {
		return nil
	}
	spans.report(b)
	b.setLayer("core.host_ns_per_flit_hop", nsPerHop)

	// The traced pass: the same op sequence against a profiled daemon.
	td, _, err := b.startDaemons("traced", true)
	if err != nil {
		return err
	}
	tl := b.runLoad(td, clients)
	b.checkResults(tl)
	td.stop()
	data, err := os.ReadFile(td.profile)
	if err != nil {
		return fmt.Errorf("reading the daemon's CPU profile: %w", err)
	}
	stacks, err := parseProfile(data)
	if err != nil {
		return err
	}
	b.setProfileShares(stacks)
	perJob := func(l *load) float64 { return l.wall.Seconds() / float64(len(l.jobs)) }
	b.setLayer("trace.overhead_frac", perJob(tl)/perJob(ld)-1)
	return nil
}

// reportLoad prints the served-mix end-to-end metrics (direct path
// latency, both paths' throughput) and the latency breakdowns.
func (b *bench) reportLoad(ld *load, setups []float64) {
	var direct, viaFleet []float64
	hits := 0
	for _, j := range ld.jobs {
		ms := float64(j.lat.Microseconds()) / 1e3
		if j.fleet {
			viaFleet = append(viaFleet, ms)
		} else {
			direct = append(direct, ms)
		}
		if j.hit {
			hits++
		}
	}
	ds, fs := summarize(direct), summarize(viaFleet)
	share := float64(hits) / float64(max(len(ld.jobs), 1))
	// Engine speed as clients see it: each miss is one served
	// simulation; the nproc slots run them side by side.
	cycles := float64(missSpec(1).cycles())
	var missRates []float64
	for _, j := range ld.jobs {
		if !j.hit {
			missRates = append(missRates, cycles/j.lat.Seconds())
		}
	}
	b.setE2E("sim_cycles_per_s", medianOf(missRates), fmt.Sprintf("(median of %d served misses, both paths)", len(missRates)))
	b.setE2E("par_cycles_per_s", cycles*float64(len(missRates))/ld.wall.Seconds(), "(served misses' cycles ÷ load wall time)")
	b.facts["hit_share"] = share
	b.setLayer("served.hit_share", share)
	ss := summarize(setups)
	b.setE2E("setup_s", ss.Median, fmt.Sprintf("(median of %d launches, %.4g–%.4g s)", ss.N, minOf(setups), maxOf(setups)))
	b.setE2E("job_p50_ms", ds.Median, "(direct "+ds.String()+")")
	b.setE2E("jobs_per_s", float64(len(ld.jobs))/ld.wall.Seconds(),
		fmt.Sprintf("(both paths, %d jobs in %.1fs, hit share %.3f, %d refused, %d failed)",
			len(ld.jobs), ld.wall.Seconds(), share, ld.refused, ld.failed))
	b.printf("%-11s %-18s %s\n", b.workload, "fleet path ms", fs.String())
	if v, ok := percentileAt(direct, 95); ok {
		b.setLayer("serve.job_p95_ms", v)
	}
	if v, ok := percentileAt(viaFleet, 95); ok {
		b.setLayer("fleet.job_p95_ms", v)
	}
	b.setLayer("serve.job_samples", float64(ds.N))
	b.setLayer("fleet.job_p50_ms", fs.Median)
	b.setLayer("fleet.job_samples", float64(fs.N))
}

// referenceRuns re-runs up to refSpecs of the served miss specs
// in-process, once through core.RunAudit and serially through the
// timed path, and requires both to reproduce the served result byte for
// byte. When tracing, each also runs at SetParallel(nproc) with a phase
// profile attached. It returns the serial runs' untraced host ns per
// flit hop.
func (b *bench) referenceRuns(ld *load, served map[int64][]byte) float64 {
	seeds := ld.misses
	if len(seeds) > refSpecs {
		seeds = seeds[:refSpecs]
	}
	if len(seeds) == 0 {
		b.fail("served-mix: no miss completed, nothing to check in-process")
		return 0
	}
	var measureNs float64
	var allocs []float64
	var hops int64
	var prof core.PhaseProfile
	for i, seed := range seeds {
		es := missSpec(seed)
		s := runTimed(es, 1, nil)
		b.addSim(es, s.results, s.digest)
		want, _ := json.Marshal(simspec.NewResult(es.spec, s.results, s.digest))
		ok := bytes.Equal(want, served[seed])
		if i == 0 {
			a := core.RunAudit(es.cfg, es.spec.GPU, es.spec.CPU)
			audit, _ := json.Marshal(simspec.NewResult(es.spec, a.Results, a.Digest))
			ok = ok && bytes.Equal(audit, served[seed])
		}
		if b.trace {
			ok = ok && runTimed(es, runtime.NumCPU(), &prof).digest == s.digest
		}
		b.op(ok)
		if !ok {
			b.fail("served-mix: in-process run of seed %d does not reproduce the served result", seed)
		}
		allocs = append(allocs, float64(s.alloc)/1e6)
		measureNs += float64(s.measure.Nanoseconds())
		hops += s.results.FlitHops
	}
	if b.trace {
		b.setPhase(&prof)
	} else {
		b.setE2E("alloc_mb", medianOf(allocs), fmt.Sprintf("(median of %d in-process re-runs)", len(seeds)))
	}
	return measureNs / float64(hops)
}

// spanStats holds the per-layer figures collected from the daemons
// after the load stopped.
type spanStats struct {
	spans    map[string][]float64 // "hit.queue.wait" → per-job ms
	overhead []float64            // fleet latency − worker job total, ms
	resolve  []float64            // fleet.attempt spans, ms
	metrics  map[string]float64
}

// collect fetches every job's span tree from both daemons, the
// worker's job list and both /metrics pages. It runs after the load has
// stopped, so it adds nothing to the measured jobs.
func (b *bench) collect(d *daemons, ld *load) (*spanStats, error) {
	st := &spanStats{spans: map[string][]float64{}, metrics: map[string]float64{}}
	workerTotal := map[string]float64{} // client tag → worker job ms
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if err := getJSON(d.worker+"/v1/jobs", &list); err != nil {
		return nil, err
	}
	for _, v := range list.Jobs {
		c, err1 := time.Parse(time.RFC3339Nano, v.Created)
		f, err2 := time.Parse(time.RFC3339Nano, v.Finished)
		if err1 == nil && err2 == nil {
			workerTotal[v.Client] = float64(f.Sub(c).Microseconds()) / 1e3
		}
	}
	for _, j := range ld.jobs {
		var tree telemetry.SpanView
		if j.fleet {
			if err := getJSON(d.fleet+"/v1/jobs/"+j.id+"/trace?format=tree", &tree); err != nil {
				return nil, err
			}
			walk(tree, func(s telemetry.SpanView) {
				if s.Name == "fleet.attempt" {
					st.resolve = append(st.resolve, float64(s.DurUS)/1e3)
				}
			})
			// A cache-tier answer has no worker job: all of it is fleet.
			st.overhead = append(st.overhead, float64(j.lat.Microseconds())/1e3-workerTotal[j.tag])
			continue
		}
		if err := getJSON(d.worker+"/v1/jobs/"+j.id+"/trace?format=tree", &tree); err != nil {
			return nil, err
		}
		class := "miss."
		if j.hit {
			class = "hit."
		}
		walk(tree, func(s telemetry.SpanView) {
			switch s.Name {
			case "http.receive", "admission", "queue.wait", "cache.lookup", "engine.run", "encode":
				st.spans[class+s.Name] = append(st.spans[class+s.Name], float64(s.DurUS)/1e3)
			}
		})
	}
	for _, u := range []string{d.worker, d.fleet} {
		if err := scrape(u+"/metrics", st.metrics); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func walk(s telemetry.SpanView, fn func(telemetry.SpanView)) {
	fn(s)
	for _, c := range s.Children {
		walk(c, fn)
	}
}

// report sets the serve, fleet and runner per-layer metrics.
func (st *spanStats) report(b *bench) {
	for _, class := range []string{"hit", "miss"} {
		for span, metric := range map[string]string{
			"http.receive": "http_receive_ms", "admission": "admission_ms",
			"queue.wait": "queue_wait_ms", "cache.lookup": "cache_lookup_ms",
			"engine.run": "engine_run_ms", "encode": "encode_ms",
		} {
			b.setLayer("serve."+class+"."+metric, medianOf(st.spans[class+"."+span]))
		}
	}
	m := st.metrics
	b.setLayer("fleet.overhead_ms", medianOf(st.overhead))
	b.setLayer("fleet.resolve_ms", medianOf(st.resolve))
	b.setLayer("fleet.dispatches", m["delrepfleet_dispatch_total"])
	b.setLayer("fleet.retries", m["delrepfleet_retries_total"])
	b.setLayer("fleet.steals", m["delrepfleet_steals_total"])
	b.setLayer("fleet.cache_probe_hit_ratio", ratio(m[`delrepfleet_cache_probes_total{result="hit"}`], m[`delrepfleet_cache_probes_total{result="miss"}`]))
	b.setLayer("serve.disk_cache_hit_ratio", ratio(m[`delrepd_disk_cache_total{result="hit"}`], m[`delrepd_disk_cache_total{result="miss"}`]))
	var rejects float64
	for k, v := range m {
		if strings.HasPrefix(k, "delrepd_rejects_total") {
			rejects += v
		}
	}
	b.setLayer("serve.rejects", rejects)
	b.setLayer("runner.executed", m[`delrepd_engine_runs_total{source="executed"}`])
	b.setLayer("runner.memo_hits", m[`delrepd_engine_runs_total{source="memo"}`])
	b.setLayer("runner.disk_hits", m[`delrepd_engine_runs_total{source="disk"}`])
	b.setLayer("runner.failed", m[`delrepd_engine_runs_total{source="failed"}`])
}

func ratio(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads a Prometheus text page into m (series → value).
func scrape(url string, m map[string]float64) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return sc.Err()
}
