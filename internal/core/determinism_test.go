package core

import (
	"fmt"
	"runtime"
	"testing"

	"delrep/internal/config"
)

// auditConfig builds a short-window configuration for one scheme ×
// topology point. The window is small so the full matrix stays inside
// the tier-1 budget; determinism bugs of the map-iteration/RNG kind
// surface within a few hundred cycles because every packet ordering
// decision feeds back into the caches.
func auditConfig(scheme config.Scheme, topo config.Topology) config.Config {
	cfg := config.Default()
	cfg.Scheme = scheme
	cfg.NoC.Topology = topo
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 450
	cfg.GPU.KernelCycles = 300 // exercise the kernel-flush path too
	return cfg
}

// TestDeterminismAudit runs every scheme × topology combination twice
// with identical seeds and requires bit-identical cycle counts and
// stats digests. This is the executable form of the invariants the
// simlint analyzers (mapiter, rngsource, tickpurity) police statically.
func TestDeterminismAudit(t *testing.T) {
	schemes := []config.Scheme{
		config.SchemeBaseline,
		config.SchemeDelegatedReplies,
		config.SchemeRP,
	}
	topologies := []config.Topology{
		config.TopoMesh,
		config.TopoCrossbar,
		config.TopoFlattenedButterfly,
		config.TopoDragonfly,
	}
	for _, scheme := range schemes {
		for _, topo := range topologies {
			name := fmt.Sprintf("%v/%v", scheme, topo)
			t.Run(name, func(t *testing.T) {
				cfg := auditConfig(scheme, topo)
				a := RunAudit(cfg, "NN", "vips")
				b := RunAudit(cfg, "NN", "vips")
				if a.Cycles != b.Cycles {
					t.Fatalf("same-seed runs diverged in length: %d vs %d cycles", a.Cycles, b.Cycles)
				}
				if a.Digest != b.Digest {
					t.Fatalf("same-seed runs diverged: digest %#x vs %#x (cycles=%d)", a.Digest, b.Digest, a.Cycles)
				}
			})
		}
	}
}

// TestDeterminismAuditParallel runs the same scheme × topology matrix
// node-and-network parallel at several worker counts and requires the
// Results and digest to be bit-identical to the serial run — the
// acceptance bar for the fused two-dispatch tick (DESIGN.md §11–§12).
// Crossbar is included deliberately: its single router leaves nothing
// to tile, so the run exercises the shards-only path (serial network,
// parallel node phase), which must be digest-inert too.
func TestDeterminismAuditParallel(t *testing.T) {
	schemes := []config.Scheme{
		config.SchemeBaseline,
		config.SchemeDelegatedReplies,
		config.SchemeRP,
	}
	topologies := []config.Topology{
		config.TopoMesh,
		config.TopoCrossbar,
		config.TopoFlattenedButterfly,
		config.TopoDragonfly,
	}
	for _, scheme := range schemes {
		for _, topo := range topologies {
			name := fmt.Sprintf("%v/%v", scheme, topo)
			t.Run(name, func(t *testing.T) {
				cfg := auditConfig(scheme, topo)
				base := RunAudit(cfg, "NN", "vips")
				for _, workers := range []int{2, 4, 8} {
					a, err := RunAuditCtrl(RunControl{Parallel: workers}, cfg, "NN", "vips")
					if err != nil {
						t.Fatal(err)
					}
					if a.Cycles != base.Cycles || a.Digest != base.Digest {
						t.Fatalf("parallel N=%d diverged from serial: (%d, %#x) vs (%d, %#x)",
							workers, a.Cycles, a.Digest, base.Cycles, base.Digest)
					}
					if a.Results != base.Results {
						t.Fatalf("parallel N=%d results diverged from serial", workers)
					}
				}
			})
		}
	}
}

// TestDeterminismAuditSharedL1 covers the cluster organisations, whose
// stats reset path was added by the audit (shared slices + DynEB mode
// controller are extra state that must replay identically).
func TestDeterminismAuditSharedL1(t *testing.T) {
	for _, org := range []config.L1Org{config.L1DCL1, config.L1DynEB} {
		t.Run(org.String(), func(t *testing.T) {
			cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
			cfg.GPU.Org = org
			cfg.GPU.DynEBEpoch = 256
			a := RunAudit(cfg, "2DCON", "dedup")
			b := RunAudit(cfg, "2DCON", "dedup")
			if a.Cycles != b.Cycles || a.Digest != b.Digest {
				t.Fatalf("same-seed runs diverged: (%d, %#x) vs (%d, %#x)",
					a.Cycles, a.Digest, b.Cycles, b.Digest)
			}
		})
	}
}

// TestDeterminismAuditParallelSharedL1 runs the cluster organisations
// parallel. DCL1 shards on cluster boundaries; DynEB forces the node
// phase serial (its mode controller invalidates member tags mid-phase,
// see shard.go) while the networks still tile — both must reproduce
// the serial digest exactly.
func TestDeterminismAuditParallelSharedL1(t *testing.T) {
	for _, org := range []config.L1Org{config.L1DCL1, config.L1DynEB} {
		t.Run(org.String(), func(t *testing.T) {
			cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
			cfg.GPU.Org = org
			cfg.GPU.DynEBEpoch = 256
			base := RunAudit(cfg, "2DCON", "dedup")
			for _, workers := range []int{2, 4, 8} {
				a, err := RunAuditCtrl(RunControl{Parallel: workers}, cfg, "2DCON", "dedup")
				if err != nil {
					t.Fatal(err)
				}
				if a.Cycles != base.Cycles || a.Digest != base.Digest {
					t.Fatalf("parallel N=%d diverged from serial: (%d, %#x) vs (%d, %#x)",
						workers, a.Cycles, a.Digest, base.Cycles, base.Digest)
				}
				if a.Results != base.Results {
					t.Fatalf("parallel N=%d results diverged from serial", workers)
				}
			}
		})
	}
}

// TestDeterminismParallelOversubscribed runs a short Fig5/Mesh point
// (baseline, 8x8 mesh, HS×vips) at SetParallel(2) under GOMAXPROCS(1).
// With fewer Ps than pool workers, the pool skips its spin and parks at
// once on both sides of every dispatch; the digest must still equal
// the serial run's.
func TestDeterminismParallelOversubscribed(t *testing.T) {
	cfg := auditConfig(config.SchemeBaseline, config.TopoMesh)
	base := RunAudit(cfg, "HS", "vips")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := RunAuditCtrl(RunControl{Parallel: 2}, cfg, "HS", "vips")
	if err != nil {
		t.Fatal(err)
	}
	if a.Workers != 2 {
		t.Fatalf("engine ran %d workers, want 2", a.Workers)
	}
	if a.Cycles != base.Cycles || a.Digest != base.Digest || a.Results != base.Results {
		t.Fatalf("GOMAXPROCS(1) N=2 diverged from serial: (%d, %#x) vs (%d, %#x)",
			a.Cycles, a.Digest, base.Cycles, base.Digest)
	}
}

// TestDigestSeedSensitivity guards the digest itself: if it ignored
// the simulated state, the audit above would pass vacuously.
func TestDigestSeedSensitivity(t *testing.T) {
	cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
	a := RunAudit(cfg, "NN", "vips")
	cfg.Seed = 99
	b := RunAudit(cfg, "NN", "vips")
	if a.Digest == b.Digest {
		t.Fatal("different seeds produced identical digests: digest is not state-sensitive")
	}
}
