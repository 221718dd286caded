package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"delrep/internal/core"
	"delrep/internal/runner"
	"delrep/internal/simspec"
)

// sweepSpecs is the Fig 5 / Fig 16 shape: HS + vips on every topology
// under the baseline and Delegated Replies.
func (b *bench) sweepSpecs() []engineSpec {
	var out []engineSpec
	for _, topo := range []string{"mesh", "crossbar", "fbfly", "dragonfly"} {
		for _, scheme := range []string{"baseline", "delegated"} {
			out = append(out, resolve(simspec.Spec{
				GPU: "HS", CPU: "vips", Scheme: scheme, Topo: topo,
				Warmup: 600, Cycles: 2400, Seed: b.simSeed(),
			}))
		}
	}
	return out
}

// stampedLines is an io.Writer that timestamps each progress line the
// runner writes (one Write per line).
type stampedLines struct {
	mu    sync.Mutex
	lines []stampedLine
}

type stampedLine struct {
	at   time.Time
	text string
}

func (w *stampedLines) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	w.lines = append(w.lines, stampedLine{now, string(p)})
	w.mu.Unlock()
	return len(p), nil
}

// sweep is one measured batch.
type sweep struct {
	setup    time.Duration // engine and cache open
	wall     time.Duration // first Submit to last result
	alloc    uint64
	counters runner.Counters
	jobMs    []float64 // Submit → result, every submission
	slotWait []float64 // Submit → progress start line, executed specs (s)
	rates    []float64 // cycles ÷ (progress start line → result), executed specs
	cycles   int64     // simulated cycles executed
}

// runSweep submits every spec twice to a fresh engine with a fresh
// on-disk cache and checks the batch: every duplicate returns its first
// submission's digest, nothing fails, and every duplicate is a memo
// hit.
func (b *bench) runSweep(specs []engineSpec) (sweep, error) {
	var sw sweep
	eng, progress, dir, took, err := b.openEngine()
	if err != nil {
		return sw, err
	}
	defer os.RemoveAll(dir)
	sw.setup = took

	type sub struct {
		es        engineSpec
		submitted time.Time
		done      time.Time
		run       runner.Run
	}
	subs := make([]*sub, 0, 2*len(specs))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	start := time.Now()
	for pass := 0; pass < 2; pass++ {
		for _, es := range specs {
			s := &sub{es: es, submitted: time.Now()}
			f := eng.Submit(runner.Spec{Cfg: es.cfg, GPU: es.spec.GPU, CPU: es.spec.CPU})
			subs = append(subs, s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.run = f.Wait()
				s.done = time.Now()
			}()
		}
	}
	wg.Wait()
	sw.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	sw.alloc = m1.TotalAlloc - m0.TotalAlloc
	sw.counters = eng.Snapshot()

	first := map[string]*sub{}
	for _, s := range subs {
		b.op(s.run.Err == nil)
		sw.jobMs = append(sw.jobMs, float64(s.done.Sub(s.submitted).Microseconds())/1e3)
		if s.run.Err != nil {
			b.fail("topo-sweep: %s failed: %v", s.es.label(), s.run.Err)
			continue
		}
		key := s.es.label()
		f, seen := first[key]
		if !seen {
			first[key] = s
			b.addSim(s.es, s.run.Results, s.run.Digest)
			continue
		}
		if s.run.Digest != f.run.Digest {
			b.fail("topo-sweep: duplicate of %s returned digest %016x, first returned %016x", key, s.run.Digest, f.run.Digest)
		}
	}
	c := sw.counters
	if c.Failed != 0 || c.MemoHits != int64(len(specs)) || c.Executed != int64(len(specs)) || c.DiskHits != 0 {
		b.fail("topo-sweep: engine counters %+v, want %d executed, %d memo hits, no disk hits or failures", c, len(specs), len(specs))
	}
	for _, s := range first {
		line, ok := progress.startOf(s.es)
		if !ok {
			b.fail("topo-sweep: no progress line for %s", s.es.label())
			continue
		}
		sw.slotWait = append(sw.slotWait, line.Sub(s.submitted).Seconds())
		sw.rates = append(sw.rates, float64(s.es.cycles())/s.done.Sub(line).Seconds())
		sw.cycles += s.es.cycles()
	}
	return sw, nil
}

// openEngine is the sweep's set-up: a fresh on-disk cache directory
// and an engine over it with Workers = nproc.
func (b *bench) openEngine() (*runner.Engine, *stampedLines, string, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(b.workDir, "sweep-cache-")
	if err != nil {
		return nil, nil, "", 0, err
	}
	cache, err := runner.OpenDiskCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", 0, err
	}
	progress := &stampedLines{}
	eng := runner.New(runner.Options{Workers: runtime.NumCPU(), Cache: cache, Progress: progress})
	return eng, progress, dir, time.Since(t0), nil
}

// setupSamples is how many extra times topo-sweep opens an engine to
// time set-up: it takes tens of microseconds, so one sample per sweep
// is mostly scheduling noise.
const setupSamples = 200

// startOf finds the progress line the runner wrote when it started the
// spec's simulation ("run HS + vips <scheme> <layout> <topology>...").
func (w *stampedLines) startOf(es engineSpec) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	scheme, topo := fmt.Sprint(es.cfg.Scheme), fmt.Sprint(es.cfg.NoC.Topology)
	for _, l := range w.lines {
		f := strings.Fields(strings.TrimSuffix(strings.TrimSpace(l.text), "..."))
		if len(f) >= 7 && f[1] == es.spec.GPU && f[3] == es.spec.CPU && f[4] == scheme && f[len(f)-1] == topo {
			return l.at, true
		}
	}
	return time.Time{}, false
}

// runTopoSweep repeats the batch, each time on a fresh engine and
// cache, until the measuring time is spent.
func runTopoSweep(b *bench) error {
	specs := b.sweepSpecs()
	if b.trace {
		return sweepTraced(b, specs)
	}
	var setup, serial, par, alloc, jobMs, jobsPerS []float64
	var allJobs []float64
	for i := 0; i < setupSamples; i++ {
		_, _, dir, took, err := b.openEngine()
		if err != nil {
			return err
		}
		os.RemoveAll(dir)
		setup = append(setup, took.Seconds())
	}
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < b.seconds; rep++ {
		sw, err := b.runSweep(specs)
		if err != nil {
			return err
		}
		setup = append(setup, sw.setup.Seconds())
		serial = append(serial, sw.rates...)
		par = append(par, float64(sw.cycles)/sw.wall.Seconds())
		alloc = append(alloc, float64(sw.alloc)/1e6/float64(len(specs)))
		jobMs = append(jobMs, medianOf(sw.jobMs))
		jobsPerS = append(jobsPerS, float64(len(sw.jobMs))/sw.wall.Seconds())
		allJobs = append(allJobs, sw.jobMs...)
	}
	reps := fmt.Sprintf("(median of %d sweeps)", len(jobMs))
	b.setE2E("setup_s", medianOf(setup), fmt.Sprintf("(median of %d engine opens)", len(setup)))
	b.setE2E("sim_cycles_per_s", medianOf(serial), fmt.Sprintf("(median of %d executed runs)", len(serial)))
	b.setE2E("par_cycles_per_s", medianOf(par), reps+" run-level, Workers=nproc")
	b.setE2E("alloc_mb", medianOf(alloc), reps+" per executed run")
	b.setE2E("job_p50_ms", medianOf(jobMs), reps+" pooled "+summarize(allJobs).String())
	b.setE2E("jobs_per_s", medianOf(jobsPerS), reps)
	return nil
}

// sweepTraced runs one untraced batch, one batch under a CPU profile,
// and the batch's specs in-process with a phase profile (the runner
// does not expose one).
func sweepTraced(b *bench, specs []engineSpec) error {
	plain, err := b.runSweep(specs)
	if err != nil {
		return err
	}
	var traced sweep
	var runErr error
	stacks, err := cpuProfile(func() { traced, runErr = b.runSweep(specs) })
	if err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	b.setProfileShares(stacks)
	c := traced.counters
	b.setLayer("runner.executed", float64(c.Executed))
	b.setLayer("runner.memo_hits", float64(c.MemoHits))
	b.setLayer("runner.disk_hits", float64(c.DiskHits))
	b.setLayer("runner.failed", float64(c.Failed))
	b.setLayer("runner.slot_wait_p50_s", medianOf(plain.slotWait))
	b.setLayer("runner.sweep_s", plain.wall.Seconds())
	b.setLayer("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)

	var prof core.PhaseProfile
	var measureNs float64
	var hops int64
	for _, es := range specs {
		r := runTimed(es, 1, nil)
		measureNs += float64(r.measure.Nanoseconds())
		hops += r.results.FlitHops
		rp := runTimed(es, 1, &prof)
		b.op(rp.digest == r.digest)
		if rp.digest != r.digest {
			b.fail("topo-sweep: phase-profiled %s digest %016x != %016x", es.label(), rp.digest, r.digest)
		}
	}
	b.setPhase(&prof)
	b.setLayer("core.host_ns_per_flit_hop", measureNs/float64(hops))
	return nil
}
