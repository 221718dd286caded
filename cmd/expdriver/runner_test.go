package main

import (
	"testing"

	"delrep/internal/config"
	"delrep/internal/runner"
)

func newTestRunner(quick bool) *Runner {
	return NewRunner(quick, 1, runner.New(runner.Options{Workers: 1}))
}

func TestRunnerBenchSets(t *testing.T) {
	full := newTestRunner(false)
	if got := len(full.GPUBenches()); got != 11 {
		t.Fatalf("full bench set = %d, want 11", got)
	}
	if got := len(full.SubsetBenches()); got != 5 {
		t.Fatalf("subset = %d, want 5", got)
	}
	if got := len(full.CoRunners("HS")); got != 3 {
		t.Fatalf("co-runners = %d, want 3", got)
	}
	quick := newTestRunner(true)
	if got := len(quick.GPUBenches()); got != 3 {
		t.Fatalf("quick bench set = %d, want 3", got)
	}
	if got := len(quick.CoRunners("HS")); got != 1 {
		t.Fatalf("quick co-runners = %d, want 1", got)
	}
	if quick.Warm >= full.Warm || quick.Measure >= full.Measure {
		t.Fatal("quick windows not smaller")
	}
}

func TestRunnerSharesResults(t *testing.T) {
	r := newTestRunner(true)
	r.Warm, r.Measure = 500, 1000 // tiny: this test runs real simulations
	cfg := BaseConfig(config.SchemeBaseline)
	a := r.Run(cfg, "HS", "vips")
	if c := r.eng.Snapshot(); c.Executed != 1 {
		t.Fatalf("first run executed %d simulations, want 1", c.Executed)
	}
	b := r.Run(cfg, "HS", "vips")
	if c := r.eng.Snapshot(); c.Executed != 1 || c.MemoHits != 1 {
		t.Fatalf("repeat run not shared: %+v", c)
	}
	if a != b {
		t.Fatal("shared run returned different results")
	}
	cfg.Scheme = config.SchemeDelegatedReplies
	r.Run(cfg, "HS", "vips")
	if c := r.eng.Snapshot(); c.Executed != 2 {
		t.Fatalf("different scheme not re-run: %+v", c)
	}
}

// TestPrepStampsWindows guards the cache-key bugfix: the windows and
// seed the driver stamps must reach the engine's cache key, so -quick
// results can never alias full-window results in a shared cache.
func TestPrepStampsWindows(t *testing.T) {
	r := newTestRunner(false)
	r.Warm, r.Measure, r.Seed = 111, 222, 7
	cfg := r.prep(BaseConfig(config.SchemeBaseline))
	if cfg.WarmupCycles != 111 || cfg.MeasureCycles != 222 || cfg.Seed != 7 {
		t.Fatalf("prep did not stamp windows/seed: %+v", cfg)
	}
	k1 := runner.Key(cfg, "HS", "vips")
	r.Warm = 5_000
	k2 := runner.Key(r.prep(BaseConfig(config.SchemeBaseline)), "HS", "vips")
	if k1 == k2 {
		t.Fatal("cache key ignores warmup window")
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, e := range experiments() {
		if e.name == "" || e.about == "" || e.run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if names[e.name] {
			t.Errorf("duplicate experiment %s", e.name)
		}
		names[e.name] = true
	}
	for _, want := range []string{"tableI", "tableII", "fig2", "fig5", "fig6", "fig7",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "nodemix", "energy", "area", "ablation"} {
		if !names[want] {
			t.Errorf("experiment %s missing from registry", want)
		}
	}
}
