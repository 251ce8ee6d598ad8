package main

import "ovs/internal/parallel"

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what an untraced run reports: what a user running the
// pipeline sees. Every workload reports all of them, and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what a traced run reports. A metric of a stage the workload
// does not run reads 0.
var perLayer = []metricDef{
	// Stage times and recovery quality. They vary with the seed's inputs
	// more than an end-to-end bound allows, or do not exist on every
	// workload, so they are reported here.
	{"train_s", "s", "lower"},
	{"fit_s", "s", "lower"},
	{"datagen_s", "s", "lower"},
	{"rmse_tod", "trips", "lower"},
	{"rmse_volume", "veh", "lower"},
	{"rmse_speed", "m/s", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"trace.overhead_s", "s", "lower"},

	{"dataset.generate_s", "s", "lower"},
	{"dataset.ground_truth_s", "s", "lower"},
	{"dataset.samples", "count", "higher"},

	{"sim.run_ms.p50", "ms", "lower"},
	{"sim.run_ms.top", "ms", "lower"},
	{"sim.run_ms.top_pct", "%", "higher"},
	{"sim.run_ms.n", "count", "higher"},
	{"sim.spawned", "count", "higher"},
	{"sim.completed_frac", "ratio", "higher"},
	{"sim.dijkstra_calls", "count", "lower"},

	{"roadnet.topology_s", "s", "lower"},

	{"core.v2s_s", "s", "lower"},
	{"core.t2v_s", "s", "lower"},
	{"core.v2s_epoch_ms", "ms", "lower"},
	{"core.t2v_epoch_ms", "ms", "lower"},
	{"core.fit_epoch_ms", "ms", "lower"},
	{"core.fit_restarts", "count", "higher"},
	{"core.v2s_final_loss", "loss", "lower"},
	{"core.fit_final_loss", "loss", "lower"},
	{"core.eval_s", "s", "lower"},

	{"tensor.arena.gets.train", "count", "lower"},
	{"tensor.arena.misses.train", "count", "lower"},
	{"tensor.arena.hit_ratio.train", "ratio", "higher"},
	{"tensor.arena.discards.train", "count", "lower"},
	{"tensor.arena.gets.fit", "count", "lower"},
	{"tensor.arena.misses.fit", "count", "lower"},
	{"tensor.arena.hit_ratio.fit", "ratio", "higher"},
	{"tensor.arena.discards.fit", "count", "lower"},

	{"tensor.packcache.hits.train", "count", "higher"},
	{"tensor.packcache.misses.train", "count", "lower"},
	{"tensor.packcache.invalidations.train", "count", "lower"},
	{"tensor.packcache.evictions.train", "count", "lower"},
	{"tensor.packcache.hit_ratio.train", "ratio", "higher"},
	{"tensor.packcache.bytes.train", "B", "lower"},
	{"tensor.packcache.hits.fit", "count", "higher"},
	{"tensor.packcache.misses.fit", "count", "lower"},
	{"tensor.packcache.invalidations.fit", "count", "lower"},
	{"tensor.packcache.evictions.fit", "count", "lower"},
	{"tensor.packcache.hit_ratio.fit", "ratio", "higher"},
	{"tensor.packcache.bytes.fit", "B", "lower"},

	{"parallel.efficiency.train", "ratio", "higher"},
	{"parallel.efficiency.fit", "ratio", "higher"},
	{"parallel.efficiency.datagen", "ratio", "higher"},

	{"ckpt.writes", "count", "lower"},
	{"ckpt.bytes", "B", "lower"},
	{"ckpt.read_s", "s", "lower"},

	{"runtime.mallocs.train", "count", "lower"},
	{"runtime.alloc_mb.train", "MB", "lower"},
	{"runtime.gc_cycles.train", "count", "lower"},
	{"runtime.gc_pause_ms.train", "ms", "lower"},
	{"runtime.mallocs.fit", "count", "lower"},
	{"runtime.alloc_mb.fit", "MB", "lower"},
	{"runtime.gc_cycles.fit", "count", "lower"},
	{"runtime.gc_pause_ms.fit", "ms", "lower"},
	{"runtime.mallocs.datagen", "count", "lower"},
	{"runtime.alloc_mb.datagen", "MB", "lower"},
	{"runtime.gc_cycles.datagen", "count", "lower"},
	{"runtime.gc_pause_ms.datagen", "ms", "lower"},

	{"cpu.arena_share", "ratio", "lower"},
	{"cpu.transcendental_share", "ratio", "lower"},
	{"cpu.gemm_share", "ratio", "lower"},
	{"cpu.lstmcell_share", "ratio", "lower"},
	{"cpu.sim_share", "ratio", "lower"},
	{"cpu.roadnet_share", "ratio", "lower"},
	{"cpu.gc_share", "ratio", "lower"},
	{"cpu.sched_share", "ratio", "lower"},
}

// layerValues reads one traced operation's per-layer values off its spans.
// Run-level values (set-up, probe, CPU profile) are added by run.
func layerValues(rec *recorder, run int, w spec, o *outcome) map[string]float64 {
	get := func(name string) delta {
		s, _ := rec.last(run, name)
		return s.delta()
	}
	train, fit, datagen := get("train"), get("core.fit"), get("datagen")
	v2s, t2v := get("core.v2s").Wall.Seconds(), get("core.t2v").Wall.Seconds()
	workers := float64(parallel.Workers())
	restarts := 0
	if w.Model != nil {
		restarts = w.Restarts
	}
	v := map[string]float64{
		"train_s":     train.Wall.Seconds(),
		"fit_s":       fit.Wall.Seconds(),
		"datagen_s":   datagen.Wall.Seconds(),
		"rmse_tod":    o.triple.TOD,
		"rmse_volume": o.triple.Volume,
		"rmse_speed":  o.triple.Speed,

		"dataset.generate_s":     get("dataset.generate").Wall.Seconds(),
		"dataset.ground_truth_s": get("dataset.ground_truth").Wall.Seconds(),
		"dataset.samples":        float64(len(o.env.Samples)),

		"core.v2s_s":          v2s,
		"core.t2v_s":          t2v,
		"core.v2s_epoch_ms":   ratio(v2s*1e3, float64(len(o.v2sHist))),
		"core.t2v_epoch_ms":   ratio(t2v*1e3, float64(len(o.t2vHist))),
		"core.fit_epoch_ms":   ratio(fit.Wall.Seconds()*1e3, float64(w.Scale.FitEpochs)),
		"core.fit_restarts":   float64(restarts),
		"core.v2s_final_loss": lastOf(o.v2sHist),
		"core.fit_final_loss": lastOf(o.fitHist),
		"core.eval_s":         get("core.eval").Wall.Seconds(),

		"ckpt.writes": float64(o.ckptFiles),
		"ckpt.bytes":  float64(o.ckptBytes),
		"ckpt.read_s": get("ckpt.read").Wall.Seconds(),
	}
	for _, st := range []struct {
		name string
		d    delta
	}{{"train", train}, {"fit", fit}, {"datagen", datagen}} {
		v["parallel.efficiency."+st.name] = ratio(st.d.CPU.Seconds(), st.d.Wall.Seconds()*workers)
		v["runtime.mallocs."+st.name] = float64(st.d.Mallocs)
		v["runtime.alloc_mb."+st.name] = float64(st.d.AllocBytes) / (1 << 20)
		v["runtime.gc_cycles."+st.name] = float64(st.d.GCCycles)
		v["runtime.gc_pause_ms."+st.name] = float64(st.d.GCPauseNs) / 1e6
		if st.name == "datagen" {
			continue
		}
		v["tensor.arena.gets."+st.name] = float64(st.d.ArenaGets)
		v["tensor.arena.misses."+st.name] = float64(st.d.ArenaMisses)
		v["tensor.arena.hit_ratio."+st.name] = ratio(float64(st.d.ArenaGets-st.d.ArenaMisses), float64(st.d.ArenaGets))
		v["tensor.arena.discards."+st.name] = float64(st.d.ArenaDiscards)
		v["tensor.packcache.hits."+st.name] = float64(st.d.PackHits)
		v["tensor.packcache.misses."+st.name] = float64(st.d.PackMisses)
		v["tensor.packcache.invalidations."+st.name] = float64(st.d.PackInvalidations)
		v["tensor.packcache.evictions."+st.name] = float64(st.d.PackEvictions)
		v["tensor.packcache.hit_ratio."+st.name] = ratio(float64(st.d.PackHits), float64(st.d.PackHits+st.d.PackMisses))
		v["tensor.packcache.bytes."+st.name] = float64(st.d.PackBytes)
	}
	return v
}

func lastOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
