package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"delrep/internal/config"
	"delrep/internal/fleet"
	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/stats"
)

// openCache resolves the -cache flag: "off" disables the on-disk
// cache, "auto" selects the per-user default directory (degrading to
// no cache if unavailable), anything else is a directory path.
func openCache(flagVal string) *runner.DiskCache {
	switch flagVal {
	case "off":
		return nil
	case "auto":
		dir, err := runner.DefaultCacheDir()
		if err != nil {
			fmt.Fprintf(os.Stderr, "delrepsim: no user cache dir (%v); running uncached\n", err)
			return nil
		}
		c, err := runner.OpenDiskCache(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "delrepsim: opening cache %s: %v; running uncached\n", dir, err)
			return nil
		}
		return c
	default:
		c, err := runner.OpenDiskCache(flagVal)
		if err != nil {
			fatalf("opening cache %s: %v", flagVal, err)
		}
		return c
	}
}

// pruneCache implements -cache-prune: shrink the on-disk result cache
// to the given size budget (oldest entries first) and report what was
// evicted.
func pruneCache(cacheFlag, sizeSpec string) {
	maxBytes, err := runner.ParseSize(sizeSpec)
	if err != nil {
		fatalf("-cache-prune: %v", err)
	}
	cache := openCache(cacheFlag)
	if cache == nil {
		fatalf("-cache-prune needs a cache (-cache is %q)", cacheFlag)
	}
	before, err := cache.Size()
	if err != nil {
		fatalf("sizing cache %s: %v", cache.Dir(), err)
	}
	removed, freed, err := cache.Prune(maxBytes)
	if err != nil {
		fatalf("pruning cache %s: %v", cache.Dir(), err)
	}
	fmt.Printf("cache %s: %d -> %d bytes, %d entries removed (%d bytes freed)\n",
		cache.Dir(), before, before-freed, removed, freed)
}

// runSweep runs the cross product of comma-separated -gpu, -cpu and
// -scheme lists through the parallel engine and prints one row per
// run. Rows appear in declaration order (schemes outermost, then GPU,
// then CPU benchmarks), whatever order the simulations finish in, so
// the output is identical at any -j value and any cache state. With
// -remote, cache-missing points are delegated to the fleet instead of
// executed here; the table is byte-identical either way.
func runSweep(cfg config.Config, gpuList, cpuList, schemeList string, jobs int, cacheFlag, remote string) {
	var schemes []config.Scheme
	for _, s := range strings.Split(schemeList, ",") {
		sc, err := simspec.ParseScheme(strings.TrimSpace(s))
		if err != nil {
			fatalf("%v", err)
		}
		schemes = append(schemes, sc)
	}
	split := func(list string) []string {
		var out []string
		for _, s := range strings.Split(list, ",") {
			if s = strings.TrimSpace(s); s != "" {
				out = append(out, s)
			}
		}
		return out
	}
	gpus, cpus := split(gpuList), split(cpuList)
	if len(gpus) == 0 || len(cpus) == 0 {
		fatalf("-sweep needs at least one GPU and one CPU benchmark")
	}

	cache := openCache(cacheFlag)
	var resolver runner.Resolver
	if remote != "" {
		client := fleet.NewClient(remote, "delrepsim", nil)
		if err := client.Ping(context.Background()); err != nil {
			fatalf("%v", err)
		}
		resolver = client
	}
	eng := runner.New(runner.Options{Workers: jobs, Cache: cache, Progress: os.Stderr, Remote: resolver})
	batch := eng.NewBatch()
	for _, scheme := range schemes {
		for _, g := range gpus {
			for _, c := range cpus {
				sc := cfg
				sc.Scheme = scheme
				batch.Add(runner.Spec{Cfg: sc, GPU: g, CPU: c})
			}
		}
	}

	t := stats.NewTable(fmt.Sprintf("Sweep: %d runs", batch.Len()),
		"GPU", "CPU", "Scheme", "GPU IPC", "CPU lat", "CPU tput", "Blocked %", "RepUtil %", "Deleg")
	for _, run := range batch.Wait() {
		res := run.Results
		t.AddRow(run.Spec.GPU, run.Spec.CPU, run.Spec.Cfg.Scheme.String(),
			res.GPUIPC, res.CPULatAvg, res.CPUThroughput,
			100*res.MemBlockedRate, 100*res.MemReplyLinkUtil, res.Delegations)
	}
	fmt.Println(t)

	c := eng.Snapshot()
	where := "off"
	if cache != nil {
		where = cache.Dir()
	}
	fmt.Fprintf(os.Stderr, "delrepsim: %d simulations executed, %d disk-cache hits, %d in-process shares (cache %s)\n",
		c.Executed, c.DiskHits, c.MemoHits, where)
}
