package main

import (
	"context"
	"testing"
)

// TestWorkloadDesignFacts runs every workload at a tiny size, traced, and
// asserts the facts each workload was chosen for. If one stops holding, the
// workload no longer exercises (or bypasses) the layer its rationale names.
func TestWorkloadDesignFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	results := map[string]map[string]float64{}
	for _, w := range specs() {
		w := w.tiny()
		dir := t.TempDir()
		rep, err := run(context.Background(), w, config{
			workload: w.Name, seed: 3, seconds: 0.001, traced: true, outDir: dir, workDir: dir,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.correct() || rep.attempted != minOps {
			t.Fatalf("%s: attempted %d, failed %d", w.Name, rep.attempted, rep.failed)
		}
		for _, d := range perLayer {
			if _, ok := rep.metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", w.Name, d.Name)
			}
		}
		results[w.Name] = rep.metrics
	}

	facts := []struct {
		workload, metric string
		ok               func(float64) bool
		want             string
	}{
		// The default-width model stays on the small-kernel GEMM path.
		{"pipeline-hangzhou", "tensor.packcache.hits.train", zero, "= 0"},
		{"pipeline-hangzhou", "tensor.packcache.hits.fit", zero, "= 0"},
		{"pipeline-hangzhou", "cpu.lstmcell_share", positive, "> 0"},
		// At paper width the fit reads frozen, cached weight panels, and
		// training invalidates them on every step.
		{"paperwidth-fit", "tensor.packcache.hits.fit", positive, "> 0"},
		{"paperwidth-fit", "tensor.packcache.invalidations.train", positive, "> 0"},
		{"paperwidth-fit", "ckpt.writes", func(v float64) bool { return v == 2 }, "= restarts (2)"},
		{"paperwidth-fit", "core.fit_restarts", func(v float64) bool { return v == 2 }, "= 2"},
		{"paperwidth-fit", "ckpt.bytes", positive, "> 0"},
		// Data generation only: routing runs, training does not.
		{"datagen-grid400", "sim.dijkstra_calls", positive, "> 0"},
		{"datagen-grid400", "sim.spawned", positive, "> 0"},
		{"datagen-grid400", "train_s", zero, "= 0"},
		{"datagen-grid400", "tensor.arena.gets.train", zero, "= 0"},
		{"datagen-grid400", "cpu.sim_share", positive, "> 0"},
	}
	for _, f := range facts {
		if v := results[f.workload][f.metric]; !f.ok(v) {
			t.Errorf("%s: %s = %v, want %s", f.workload, f.metric, v, f.want)
		}
	}
	for name, m := range results {
		if m["trace.overhead_s"] == 0 {
			t.Errorf("%s: tracing overhead not reported", name)
		}
		if v := m["sim.completed_frac"]; v <= 0 || v > 1 {
			t.Errorf("%s: sim.completed_frac = %v, want (0, 1]", name, v)
		}
	}
}

func zero(v float64) bool     { return v == 0 }
func positive(v float64) bool { return v > 0 }

// tiny shrinks a workload's run length for the smoke test, keeping the
// shapes (network, model width, restarts) that decide which code paths run.
func (w spec) tiny() spec {
	w.Golden = nil
	w.Scale.Samples = min(w.Scale.Samples, 3)
	w.Scale.V2SEpochs, w.Scale.T2VEpochs = 1, 1
	w.Scale.FitEpochs = min(w.Scale.FitEpochs, 3)
	return w
}
