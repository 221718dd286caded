// Command perfbench is the repository benchmark. It drives the
// simulator's layers from outside, through their public APIs, on one
// of three workloads, checks that every result is correct, and prints
// the measured metrics:
//
//	clog-mesh   in-process core runs of the paper's clogging case, serial and parallel
//	topo-sweep  one runner.Engine batch across four topologies × two schemes
//	served-mix  closed-loop jobs against delrepd, directly and through delrepfleet
//
// Run it from the repository root through run.sh, which builds the
// daemons and this program first:
//
//	bash perfbench/run.sh --workload clog-mesh --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it runs the workload again under CPU profiles, phase
// profiles and span collection and reports the per-layer metrics. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for why each
// workload and metric was chosen.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef is one reported metric: its name and unit. The tables
// below must match BENCHMARK.json (TestTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd lists the metrics printed with --trace 0. Every workload
// measures every one of them; README.md gives each one's definition
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"par_cycles_per_s", "cycles/s"},
	{"alloc_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
}

// perLayer lists the metrics printed with --trace 1. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.phase.net_frac", "ratio"},
	{"core.phase.node_frac", "ratio"},
	{"core.phase.serial_frac", "ratio"},
	{"core.host_ns_per_flit_hop", "ns"},
	{"core.cpu_frac", "ratio"},
	{"noc.cpu_frac", "ratio"},
	{"noc.vc_alloc_frac", "ratio"},
	{"noc.switch_frac", "ratio"},
	{"noc.ni_frac", "ratio"},
	{"gpu.cpu_frac", "ratio"},
	{"cache.cpu_frac", "ratio"},
	{"dram.cpu_frac", "ratio"},
	{"cpu.cpu_frac", "ratio"},
	{"workload.cpu_frac", "ratio"},
	{"fifo.cpu_frac", "ratio"},
	{"par.cpu_frac", "ratio"},
	{"serve.cpu_frac", "ratio"},
	{"runner.cpu_frac", "ratio"},
	{"runtime.sched_frac", "ratio"},
	{"runtime.gc_frac", "ratio"},
	{"runner.executed", "count"},
	{"runner.memo_hits", "count"},
	{"runner.disk_hits", "count"},
	{"runner.failed", "count"},
	{"runner.slot_wait_p50_s", "s"},
	{"runner.sweep_s", "s"},
	{"serve.hit.http_receive_ms", "ms"},
	{"serve.hit.admission_ms", "ms"},
	{"serve.hit.queue_wait_ms", "ms"},
	{"serve.hit.cache_lookup_ms", "ms"},
	{"serve.hit.engine_run_ms", "ms"},
	{"serve.hit.encode_ms", "ms"},
	{"serve.miss.http_receive_ms", "ms"},
	{"serve.miss.admission_ms", "ms"},
	{"serve.miss.queue_wait_ms", "ms"},
	{"serve.miss.cache_lookup_ms", "ms"},
	{"serve.miss.engine_run_ms", "ms"},
	{"serve.miss.encode_ms", "ms"},
	{"serve.rejects", "count"},
	{"serve.disk_cache_hit_ratio", "ratio"},
	{"serve.job_p95_ms", "ms"},
	{"serve.job_samples", "count"},
	{"fleet.job_p50_ms", "ms"},
	{"fleet.job_p95_ms", "ms"},
	{"fleet.job_samples", "count"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.resolve_ms", "ms"},
	{"fleet.dispatches", "count"},
	{"fleet.retries", "count"},
	{"fleet.steals", "count"},
	{"fleet.cache_probe_hit_ratio", "ratio"},
	{"served.hit_share", "ratio"},
	{"sim.gpu_ipc", "insts/cycle"},
	{"sim.cpu_lat_avg", "cycles"},
	{"sim.mem_blocked_rate", "ratio"},
	{"sim.flit_hops", "count"},
	{"sim.l1_miss_rate", "ratio"},
	{"sim.mshr_merges", "count"},
	{"sim.delegations", "count"},
	{"sim.llc_hit_rate", "ratio"},
	{"sim.dram_bus_util", "ratio"},
	{"sim.specs", "count"},
	{"sim.reference_checked", "count"},
	{"sim.reference_mismatches", "count"},
	{"trace.overhead_frac", "ratio"},
	{"error_rate", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"clog-mesh":  runClogMesh,
	"topo-sweep": runTopoSweep,
	"served-mix": runServedMix,
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout
	binDir   string // prebuilt delrepd / delrepfleet
	workDir  string // private scratch directory, removed on exit
	refPath  string // recorded sim.* reference
	record   bool   // add this run's sim.* to refPath
	out      io.Writer

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	sims      []simRecord
	facts     map[string]any
	children  []*child
}

// op counts one attempted operation and whether it succeeded.
func (b *bench) op(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
	}
}

// fail records a failed correctness check as a wrong-result operation.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	b.failed++
	b.problems = append(b.problems, msg)
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
}

func (b *bench) printf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fmt.Fprintf(b.out, format, args...)
}

// setE2E records an end-to-end metric and prints it with its unit.
func (b *bench) setE2E(name string, v float64, note string) {
	b.e2e[name] = v
	b.printf("%-11s %-18s %14.6g %-9s %s\n", b.workload, name, v, unitOf(endToEnd, name), note)
}

// setLayer records a per-layer metric.
func (b *bench) setLayer(name string, v float64) { b.layer[name] = v }

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// simSeed is the simulation seed the workload seed selects. Seed 0
// means the simulator's default, so it is mapped away from.
func (b *bench) simSeed() int64 {
	if b.seed <= 0 {
		return 1 - b.seed
	}
	return b.seed
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: clog-mesh, topo-sweep or served-mix")
		seed     = flag.Int64("seed", 1, "workload seed (sets simulation seeds and the served hit/miss sequence)")
		seconds  = flag.Int("seconds", 30, "how long to measure")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		root     = flag.String("root", ".", "repository checkout")
		binDir   = flag.String("bin", "", "directory holding delrepd and delrepfleet")
		record   = flag.Bool("record", false, "add this run's sim.* counts and digests to perfbench/reference.json")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload clog-mesh|topo-sweep|served-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Scratch files live beside the build output, inside the checkout.
	buildDir := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(err)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		root:     *root,
		binDir:   *binDir,
		workDir:  dir,
		refPath:  filepath.Join(*root, "perfbench", "reference.json"),
		record:   *record,
		out:      os.Stdout,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		facts:    map[string]any{},
	}
	// A signal must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.stopChildren()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	b.hostFacts()
	runErr := run(b)
	b.stopChildren()
	os.RemoveAll(dir)
	if runErr != nil {
		fatal(runErr)
	}
	b.compareReference()
	os.Exit(b.finish())
}

// finish prints the facts and the result line and returns the exit
// code: 0 only when every check passed.
func (b *bench) finish() int {
	defs := endToEnd
	vals := b.e2e
	if b.trace {
		defs, vals = perLayer, b.layer
		if b.attempted > 0 {
			vals["error_rate"] = float64(b.failed) / float64(b.attempted)
		}
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !b.trace {
			b.fail("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if b.trace {
		for _, d := range perLayer {
			b.printf("%-11s %-30s %14.6g %s\n", b.workload, d.name, vals[d.name], d.unit)
		}
	}
	// Read the counts last: a missing metric above is a failure too.
	res.Attempted, res.Failed = max(b.attempted, 1), b.failed
	res.Correct = len(b.problems) == 0
	facts, _ := json.Marshal(b.facts)
	b.printf("facts %s\n", facts)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	b.printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// hostFacts records the host and run facts printed with every result.
func (b *bench) hostFacts() {
	b.facts["workload"] = b.workload
	b.facts["seed"] = b.seed
	b.facts["seconds"] = b.seconds.Seconds()
	b.facts["trace"] = b.trace
	b.facts["nproc"] = runtime.NumCPU()
	b.facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.facts["go"] = runtime.Version()
	b.facts["commit"] = "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				b.facts["commit"] = s.Value
			}
		}
	}
	b.facts["source_sha256"] = sourceDigest(b.root)
	b.facts["model"] = "unvalidated: the repository holds no measurement from real hardware, so sim.* counts carry no error figure"
}

// sourceDigest hashes the repository's Go sources and module files, so
// a result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
