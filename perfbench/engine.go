package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/simspec"
)

// engineSpec is one simulation the benchmark runs or submits: the
// canonical wire spec and the configuration it resolves to.
type engineSpec struct {
	spec simspec.Spec // canonical (simspec.Spec.Resolve)
	cfg  config.Config
}

func resolve(s simspec.Spec) engineSpec {
	cfg, norm, err := s.Resolve()
	if err != nil {
		panic(fmt.Sprintf("perfbench: built-in spec %+v does not resolve: %v", s, err))
	}
	return engineSpec{spec: norm, cfg: cfg}
}

// label names the spec in output and in the reference file.
func (e engineSpec) label() string {
	return fmt.Sprintf("%s+%s %s %s %d+%d seed=%d", e.spec.GPU, e.spec.CPU, e.spec.Scheme, e.spec.Topo, e.spec.Warmup, e.spec.Cycles, e.spec.Seed)
}

// cycles is the simulated length of one run, warm-up included.
func (e engineSpec) cycles() int64 { return e.cfg.WarmupCycles + e.cfg.MeasureCycles }

// sampleWindow is the number of simulated cycles between the
// progress checkpoints a run is timed at. Checkpoints sit between
// ticks, so the window does not change what is simulated.
const sampleWindow = 1000

// timedRun is one in-process simulation measured from outside core.
type timedRun struct {
	setup   time.Duration // NewSystem (+ SetParallel's pool spawn)
	run     time.Duration // RunWorkload, warm-up and measurement
	measure time.Duration // the measured window alone
	rates   []float64     // cycles/s of each sampleWindow-cycle window
	alloc   uint64        // bytes allocated, setup included
	workers int
	results core.Results
	digest  uint64
}

// runTimed builds and runs one system through the public core API:
// NewSystem, SetParallel, SetPhaseProfile, RunWorkloadCtx (progress
// checkpoints time each window and split warm-up from measurement;
// they do not change the tick sequence) and StatsDigest. Engine speed
// is taken as the median window rate: on a shared host, a median of
// many short windows is robust to the bursts of interference that
// stretch a single whole-run time.
func runTimed(es engineSpec, parallel int, prof *core.PhaseProfile) timedRun {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sys := core.NewSystem(es.cfg, es.spec.GPU, es.spec.CPU)
	if parallel > 1 {
		sys.SetParallel(parallel)
		defer sys.Close()
	}
	t1 := time.Now()
	if prof != nil {
		sys.SetPhaseProfile(prof)
	}
	warmEnd, last, lastDone := t1, t1, int64(0)
	var rates []float64
	res, err := sys.RunWorkloadCtx(core.RunControl{Window: sampleWindow, OnProgress: func(done, _ int64) {
		now := time.Now()
		if d := now.Sub(last); d > 0 && done > lastDone {
			rates = append(rates, float64(done-lastDone)/d.Seconds())
		}
		last, lastDone = now, done
		if done == es.cfg.WarmupCycles {
			warmEnd = now
		}
	}})
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		panic(err) // unreachable: no context to cancel
	}
	return timedRun{
		setup:   t1.Sub(t0),
		run:     t2.Sub(t1),
		measure: t2.Sub(warmEnd),
		rates:   rates,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		workers: sys.Parallel(),
		results: res,
		digest:  sys.StatsDigest(),
	}
}

// simRecord is the exact simulated outcome of one engine spec.
type simRecord struct {
	Key    string             `json:"-"`
	Digest string             `json:"digest"`
	Sim    map[string]float64 `json:"sim"`
}

// simValues extracts the sim.* counts from a run's results.
func simValues(r core.Results) map[string]float64 {
	return map[string]float64{
		"sim.gpu_ipc":          r.GPUIPC,
		"sim.cpu_lat_avg":      r.CPULatAvg,
		"sim.mem_blocked_rate": r.MemBlockedRate,
		"sim.flit_hops":        float64(r.FlitHops),
		"sim.l1_miss_rate":     r.L1MissRate,
		"sim.mshr_merges":      float64(r.MSHRMerges),
		"sim.delegations":      float64(r.Delegations),
		"sim.llc_hit_rate":     r.LLCHitRate,
		"sim.dram_bus_util":    r.DRAMBusUtil,
	}
}

// addSim records one engine spec's outcome (once per spec) and prints
// it; the workload's sim.* metrics are the mean over its specs.
func (b *bench) addSim(es engineSpec, r core.Results, digest uint64) {
	key := b.workload + " " + es.label()
	b.mu.Lock()
	for _, s := range b.sims {
		if s.Key == key {
			b.mu.Unlock()
			return
		}
	}
	rec := simRecord{Key: key, Digest: fmt.Sprintf("%016x", digest), Sim: simValues(r)}
	b.sims = append(b.sims, rec)
	b.mu.Unlock()
	b.printf("sim %s digest=%s ipc=%.6g cpu_lat=%.6g blocked=%.6g hops=%d delegations=%d\n",
		key, rec.Digest, r.GPUIPC, r.CPULatAvg, r.MemBlockedRate, r.FlitHops, r.Delegations)
}

// reference is the recorded sim.* outcome of every engine spec the
// benchmark has run, keyed by workload and spec label (which includes
// the seed).
type reference struct {
	About   string               `json:"about"`
	Entries map[string]simRecord `json:"entries"`
	// HostNsPerFlitHop is core.host_ns_per_flit_hop from traced runs,
	// by workload and seed, measured on Host. It depends on the host
	// and is recorded for comparison, not checked.
	HostNsPerFlitHop map[string]float64 `json:"host_ns_per_flit_hop"`
	Host             string             `json:"host"`
}

// compareReference sets the sim.* metrics and compares this run's
// records with the recorded reference; with -record it adds them.
func (b *bench) compareReference() {
	sort.Slice(b.sims, func(i, j int) bool { return b.sims[i].Key < b.sims[j].Key })
	for _, s := range b.sims {
		for k, v := range s.Sim {
			b.layer[k] += v / float64(len(b.sims))
		}
	}
	b.layer["sim.specs"] = float64(len(b.sims))
	ref := reference{Entries: map[string]simRecord{}}
	data, err := os.ReadFile(b.refPath)
	if err == nil {
		err = json.Unmarshal(data, &ref)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "perfbench: reading %s: %v\n", b.refPath, err)
	}
	checked, mismatched := 0, 0
	for _, s := range b.sims {
		want, ok := ref.Entries[s.Key]
		if !ok {
			continue
		}
		checked++
		if want.Digest != s.Digest || !sameSim(want.Sim, s.Sim) {
			mismatched++
			b.printf("sim %s differs from the reference: digest %s, recorded %s\n", s.Key, s.Digest, want.Digest)
		}
	}
	b.layer["sim.reference_checked"] = float64(checked)
	b.layer["sim.reference_mismatches"] = float64(mismatched)
	b.printf("sim reference: %d of %d specs recorded, %d differ\n", checked, len(b.sims), mismatched)
	if !b.record {
		return
	}
	for _, s := range b.sims {
		ref.Entries[s.Key] = s
	}
	if v := b.layer["core.host_ns_per_flit_hop"]; b.trace && v > 0 {
		if ref.HostNsPerFlitHop == nil {
			ref.HostNsPerFlitHop = map[string]float64{}
		}
		ref.HostNsPerFlitHop[fmt.Sprintf("%s seed=%d", b.workload, b.seed)] = v
		ref.Host = fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err == nil {
		err = os.WriteFile(b.refPath, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: recording %s: %v\n", b.refPath, err)
	}
}

func sameSim(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// cpuProfile runs fn under a runtime/pprof CPU profile and returns the
// decoded samples.
func cpuProfile(fn func()) ([]stack, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// moduleMetrics are the per-module shares reported from a profile.
var moduleMetrics = []string{"core", "noc", "gpu", "cache", "dram", "cpu", "workload", "fifo", "par", "serve", "runner"}

// setProfileShares reports a profile's module and named-function
// shares. only, when non-empty, restricts which metrics are set.
func (b *bench) setProfileShares(stacks []stack, only ...string) {
	modules, named := attribute(stacks)
	vals := map[string]float64{}
	for _, m := range moduleMetrics {
		vals[m+".cpu_frac"] = modules[m]
	}
	for k, v := range named {
		vals[k] = v
	}
	for k, v := range vals {
		if len(only) > 0 && !contains(only, k) {
			continue
		}
		b.setLayer(k, v)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// setPhase reports a phase profile's split.
func (b *bench) setPhase(p *core.PhaseProfile) {
	t := p.Total()
	if t == 0 {
		return
	}
	b.setLayer("core.phase.net_frac", float64(p.NetCompute+p.NetCommit)/float64(t))
	b.setLayer("core.phase.node_frac", float64(p.NodeCompute+p.NodeCommit)/float64(t))
	b.setLayer("core.phase.serial_frac", p.SerialFraction())
}

// clogSpec is the paper's clogging case as ROADMAP profiles it:
// NN + vips under Delegated Replies on the default 8×8 mesh with CDR
// routing.
func (b *bench) clogSpec() engineSpec {
	return resolve(simspec.Spec{
		GPU: "NN", CPU: "vips", Scheme: "delegated", Topo: "mesh", Routing: "cdr",
		Warmup: 5000, Cycles: 20000, Seed: b.simSeed(),
	})
}

// runClogMesh runs the clogging case serially and at SetParallel(nproc)
// in alternation until the measuring time is spent.
func runClogMesh(b *bench) error {
	es := b.clogSpec()
	n := runtime.NumCPU()
	pair := func() (s, p timedRun) {
		s = runTimed(es, 1, nil)
		p = runTimed(es, n, nil)
		b.op(true)
		b.op(true)
		if s.digest != p.digest {
			b.fail("clog-mesh: serial digest %016x != parallel (N=%d) digest %016x", s.digest, p.workers, p.digest)
		}
		b.addSim(es, s.results, s.digest)
		return s, p
	}
	if b.trace {
		return clogTraced(b, es, pair)
	}
	var setup, serial, par, alloc, jobMs []float64
	start := time.Now()
	var digest uint64
	for rep := 0; rep == 0 || time.Since(start) < b.seconds; rep++ {
		s, p := pair()
		if rep == 0 {
			digest = s.digest
		} else if s.digest != digest {
			b.fail("clog-mesh: repetition %d digest %016x != first %016x", rep, s.digest, digest)
		}
		setup = append(setup, (s.setup + p.setup).Seconds())
		serial = append(serial, s.rates...)
		par = append(par, p.rates...)
		alloc = append(alloc, float64(s.alloc)/1e6)
		jobMs = append(jobMs, float64((s.setup+s.run).Microseconds())/1e3)
	}
	elapsed := time.Since(start).Seconds()
	reps := fmt.Sprintf("(median of %d repetitions)", len(setup))
	windows := fmt.Sprintf("(median of %d %d-cycle windows, N=%d)", len(serial), sampleWindow, n)
	b.setE2E("setup_s", medianOf(setup), reps)
	b.setE2E("sim_cycles_per_s", medianOf(serial), windows)
	b.setE2E("par_cycles_per_s", medianOf(par), windows)
	b.setE2E("alloc_mb", medianOf(alloc), reps)
	b.setE2E("job_p50_ms", medianOf(jobMs), "(serial runs, "+summarize(jobMs).String()+")")
	b.setE2E("jobs_per_s", float64(2*len(setup))/elapsed, "(serial and parallel runs)")
	return nil
}

// clogTraced measures one untraced pair, then one pair under CPU
// profiles with a phase profile on the parallel leg.
func clogTraced(b *bench, es engineSpec, pair func() (timedRun, timedRun)) error {
	s, p := pair()
	b.setLayer("core.host_ns_per_flit_hop", float64(s.measure.Nanoseconds())/float64(s.results.FlitHops))
	var prof core.PhaseProfile
	var ts, tp timedRun
	serialStacks, err := cpuProfile(func() { ts = runTimed(es, 1, nil) })
	if err != nil {
		return err
	}
	parStacks, err := cpuProfile(func() { tp = runTimed(es, runtime.NumCPU(), &prof) })
	if err != nil {
		return err
	}
	b.op(ts.digest == s.digest && tp.digest == s.digest)
	if ts.digest != s.digest || tp.digest != s.digest {
		b.fail("clog-mesh: traced digests %016x/%016x != untraced %016x", ts.digest, tp.digest, s.digest)
	}
	b.setProfileShares(serialStacks)
	b.setProfileShares(parStacks, "par.cpu_frac", "runtime.sched_frac")
	b.setPhase(&prof)
	b.setLayer("trace.overhead_frac", float64(ts.run+tp.run)/float64(s.run+p.run)-1)
	return nil
}
