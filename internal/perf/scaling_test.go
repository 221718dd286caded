package perf

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"delrep/internal/config"
	"delrep/internal/core"
)

// fig5MeshCfg is the Fig5/Mesh evaluation point (baseline scheme on
// the 8x8 mesh, HS×vips pairing) at benchmark-sized windows — the
// scaling reference named by the roadmap for intra-run parallelism.
func fig5MeshCfg() config.Config {
	cfg := config.Default()
	cfg.Scheme = config.SchemeBaseline
	cfg.NoC.Topology = config.TopoMesh
	cfg.WarmupCycles = 3_000
	cfg.MeasureCycles = 6_000
	return cfg
}

func runFig5Mesh(t testing.TB, workers int) core.AuditRun {
	a, err := core.RunAuditCtrl(core.RunControl{Parallel: workers}, fig5MeshCfg(), "HS", "vips")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestParallelScalingDigest is the acceptance gate for the two-phase
// tile tick: the Fig5/Mesh digest must be bit-identical at every
// worker count.
func TestParallelScalingDigest(t *testing.T) {
	base := runFig5Mesh(t, 1)
	for _, workers := range []int{2, 4, 8} {
		a := runFig5Mesh(t, workers)
		if a.Digest != base.Digest || a.Cycles != base.Cycles {
			t.Fatalf("N=%d diverged from serial: (%d, %#x) vs (%d, %#x)",
				workers, a.Cycles, a.Digest, base.Cycles, base.Digest)
		}
	}
}

// TestParallelScalingWallTime asserts the speedup side of the
// acceptance bar — N=4 wall time at most 0.45x serial on Fig5/Mesh
// (tightened from the tile-only 0.6x once the node phase went
// parallel too). It needs real cores to mean anything, so it only
// runs where at least 4 are available; the digest gate above runs
// unconditionally.
func TestParallelScalingWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to measure scaling, have %d", runtime.NumCPU())
	}
	best := func(workers int) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			runFig5Mesh(t, workers)
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	serial := best(1)
	par := best(4)
	ratio := float64(par) / float64(serial)
	t.Logf("Fig5/Mesh wall time: N=1 %v, N=4 %v (ratio %.2f)", serial, par, ratio)
	if ratio > 0.45 {
		t.Fatalf("N=4 wall time is %.2fx serial, want <= 0.45x", ratio)
	}
}

// TestParallelTwoWorkersNotSlower is the small-host side of the
// scaling bar: on a 2-CPU host the per-dispatch hand-off, not the
// partitioning, decides whether N=2 pays, so N=2 must not be slower
// than serial. N=1 and N=2 alternate so that a host-speed drift hits
// both sides, and each side keeps its best of three.
//
// Only runs that had the CPUs to themselves count: a run whose threads
// waited for a CPU over a tenth of its wall time (another test binary
// under `go test ./...`, say) measures the neighbour, not the pool. The
// test waits for a quiet host and skips if none comes.
func TestParallelTwoWorkersNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("wall time under the race detector measures its instrumentation")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("need >= 2 CPUs to measure scaling, have %d", runtime.NumCPU())
	}
	const samples = 3
	deadline := time.Now().Add(3 * time.Minute)
	best := map[int]time.Duration{}
	got := map[int]int{}
	busy := 0
	for got[1] < samples || got[2] < samples {
		if time.Now().After(deadline) {
			t.Skipf("host too busy to measure: %d runs waited for a CPU, %d/%d quiet N=1/N=2 runs",
				busy, got[1], got[2])
		}
		for _, workers := range []int{1, 2} {
			if got[workers] == samples {
				continue
			}
			wait0, ok := runQueueWait()
			start := time.Now()
			runFig5Mesh(t, workers)
			d := time.Since(start)
			if wait1, _ := runQueueWait(); ok && wait1-wait0 > d/10 {
				busy++
				time.Sleep(time.Second)
				continue
			}
			if got[workers] == 0 || d < best[workers] {
				best[workers] = d
			}
			got[workers]++
		}
	}
	ratio := float64(best[2]) / float64(best[1])
	t.Logf("Fig5/Mesh wall time: N=1 %v, N=2 %v (ratio %.2f, %d busy runs discarded)", best[1], best[2], ratio, busy)
	if ratio > 1.0 {
		t.Fatalf("N=2 wall time is %.2fx serial, want <= 1.0x", ratio)
	}
}

// runQueueWait returns the total time this process's threads have
// spent runnable but waiting for a CPU, from Linux schedstat. ok is
// false where the kernel does not expose it; then every run counts.
func runQueueWait() (wait time.Duration, ok bool) {
	paths, _ := filepath.Glob("/proc/self/task/*/schedstat") // fails only on a bad pattern
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited after the glob
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			return 0, false
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, false
		}
		wait += time.Duration(ns)
	}
	return wait, len(paths) > 0
}

// profiledFig5Mesh runs Fig5/Mesh with a phase profile attached and
// returns it. Profiling wraps the identical tick sequence, so the
// digest must still match the unprofiled serial run.
func profiledFig5Mesh(t testing.TB, workers int, wantDigest uint64) *core.PhaseProfile {
	cfg := fig5MeshCfg()
	sys := core.NewSystem(cfg, "HS", "vips")
	if workers > 1 {
		sys.SetParallel(workers)
		defer sys.Close()
	}
	prof := &core.PhaseProfile{}
	sys.SetPhaseProfile(prof)
	if _, err := sys.RunWorkloadCtx(core.RunControl{}); err != nil {
		t.Fatal(err)
	}
	if d := sys.StatsDigest(); d != wantDigest {
		t.Fatalf("profiled N=%d digest %#x diverged from serial %#x", workers, d, wantDigest)
	}
	return prof
}

// TestPhaseProfileNodeParallel pins the Amdahl shift this package's
// wall-time gate depends on: at N=4 the node phase executes on the
// fused shard dispatch, not the serial fallback. The structural signal
// is the NodeCommit bucket — the instrumented orchestrator only
// accrues it on the sharded path (shard-delta folds), never through
// nodeSerial.
func TestPhaseProfileNodeParallel(t *testing.T) {
	base := runFig5Mesh(t, 1)
	prof := profiledFig5Mesh(t, 4, base.Digest)
	if prof.Cycles == 0 || prof.NodeCompute == 0 {
		t.Fatalf("parallel profile recorded nothing: %+v", prof)
	}
	if prof.NodeCommit == 0 {
		t.Fatal("node phase ran through the serial fallback: no shard commits were profiled")
	}
	if prof.NetCommit == 0 {
		t.Fatal("network phase ran through the serial fallback: no tile commits were profiled")
	}
}

// BenchmarkPhaseBreakdown publishes the per-phase Amdahl breakdown of
// the Fig5/Mesh tick at serial and N=4 as benchmark metrics: the
// serial fraction bounds what further worker scaling can buy.
func BenchmarkPhaseBreakdown(b *testing.B) {
	base := runFig5Mesh(b, 1)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "N=1", 4: "N=4"}[workers], func(b *testing.B) {
			total := &core.PhaseProfile{}
			for i := 0; i < b.N; i++ {
				p := profiledFig5Mesh(b, workers, base.Digest)
				total.Cycles += p.Cycles
				total.Begin += p.Begin
				total.NetCompute += p.NetCompute
				total.NetCommit += p.NetCommit
				total.NodeCompute += p.NodeCompute
				total.NodeCommit += p.NodeCommit
				total.Serial += p.Serial
			}
			if t := total.Total(); t > 0 {
				b.ReportMetric(100*total.SerialFraction(), "serial-%")
				b.ReportMetric(100*float64(total.NetCompute)/float64(t), "net-compute-%")
				b.ReportMetric(100*float64(total.NodeCompute)/float64(t), "node-compute-%")
			}
		})
	}
}

// BenchmarkParallelFig5Mesh reports Fig5/Mesh simulation throughput at
// each worker count (the numbers the CI bench artifact publishes),
// asserting per iteration that the digest still matches serial.
func BenchmarkParallelFig5Mesh(b *testing.B) {
	base := runFig5Mesh(b, 1)
	cycles := fig5MeshCfg().WarmupCycles + fig5MeshCfg().MeasureCycles
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(map[int]string{1: "N=1", 2: "N=2", 4: "N=4", 8: "N=8"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := runFig5Mesh(b, workers)
				if a.Digest != base.Digest {
					b.Fatalf("N=%d digest %#x diverged from serial %#x", workers, a.Digest, base.Digest)
				}
			}
			b.ReportMetric(float64(cycles*int64(b.N))/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}
