// Command digestdump prints the determinism-audit digest for every
// scheme × topology × seed point of the audit matrix (the same points
// internal/core/determinism_test.go replays), plus the shared-L1
// organisations and the adaptive mesh routing policies (DyXY,
// Footprint, HARE) under Delegated Replies. Its output is the
// digest-identity evidence for refactors that must not change
// simulated behaviour: capture the output before and after a change
// and diff — any drift means the change was not behaviour-preserving.
//
// Usage:
//
//	digestdump [-seeds 1,7,99] [-warm 200] [-cycles 450] [-parallel N]
//
// -parallel ticks every run tile-parallel on N workers; the output
// must be byte-identical to a serial dump (diff the two to certify the
// two-phase tick after touching internal/noc).
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"delrep/internal/config"
	"delrep/internal/core"
)

func main() {
	var (
		seeds    = flag.String("seeds", "1,7,99", "comma-separated seeds")
		warm     = flag.Int64("warm", 200, "warmup cycles")
		cycles   = flag.Int64("cycles", 450, "measured cycles")
		parallel = flag.Int("parallel", 0, "tile workers per run (output must match a serial dump byte for byte)")
	)
	flag.Parse()

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
	for _, s := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			panic(err)
		}
		for _, scheme := range schemes {
			for _, topo := range topologies {
				cfg := config.Default()
				cfg.Scheme = scheme
				cfg.NoC.Topology = topo
				cfg.Seed = seed
				cfg.WarmupCycles = *warm
				cfg.MeasureCycles = *cycles
				cfg.GPU.KernelCycles = 300
				a, err := core.RunAuditCtrl(core.RunControl{Parallel: *parallel}, cfg, "NN", "vips")
				if err != nil {
					panic(err)
				}
				fmt.Printf("seed=%-3d %-10v %-10v cycles=%-6d digest=%#016x\n",
					seed, scheme, topo, a.Cycles, a.Digest)
			}
		}
		// Shared-L1 organisations (extra cluster state).
		for _, org := range []config.L1Org{config.L1DCL1, config.L1DynEB} {
			cfg := config.Default()
			cfg.Scheme = config.SchemeDelegatedReplies
			cfg.NoC.Topology = config.TopoMesh
			cfg.Seed = seed
			cfg.WarmupCycles = *warm
			cfg.MeasureCycles = *cycles
			cfg.GPU.KernelCycles = 300
			cfg.GPU.Org = org
			cfg.GPU.DynEBEpoch = 256
			a, err := core.RunAuditCtrl(core.RunControl{Parallel: *parallel}, cfg, "2DCON", "dedup")
			if err != nil {
				panic(err)
			}
			fmt.Printf("seed=%-3d %-10v %-10v cycles=%-6d digest=%#016x\n",
				seed, config.SchemeDelegatedReplies, org, a.Cycles, a.Digest)
		}
		// Adaptive mesh routing policies (the rows above all use CDR).
		for _, alg := range []config.RoutingAlg{config.RoutingDyXY, config.RoutingFootprint, config.RoutingHARE} {
			cfg := config.Default()
			cfg.Scheme = config.SchemeDelegatedReplies
			cfg.NoC.Topology = config.TopoMesh
			cfg.NoC.Routing = alg
			cfg.Seed = seed
			cfg.WarmupCycles = *warm
			cfg.MeasureCycles = *cycles
			cfg.GPU.KernelCycles = 300
			a, err := core.RunAuditCtrl(core.RunControl{Parallel: *parallel}, cfg, "NN", "vips")
			if err != nil {
				panic(err)
			}
			fmt.Printf("seed=%-3d %-10v %-10v cycles=%-6d digest=%#016x\n",
				seed, config.SchemeDelegatedReplies, alg, a.Cycles, a.Digest)
		}
	}
}
