// Command perfbench is the repository benchmark: it runs one workload of
// the OVS pipeline as a closed loop (one operation in flight, the next
// started when the previous one returns) for a fixed time, checks every
// operation's outputs, and prints its metrics as one JSON line. See
// README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"ovs/internal/parallel"
)

const (
	// Set-up takes milliseconds and its time swings with the state of the
	// host, so it is repeated for setupSeconds (at least minSetups times)
	// and setup_s is the median.
	setupSeconds = 1.0
	minSetups    = 21
	// minOps is the fewest operations a run makes, whatever --seconds says,
	// so each median has at least three values. A traced run starts with a
	// warm-up operation and then alternates traced and untraced ones, so it
	// gets at least one of each.
	minOps = 3
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	workDir  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: pipeline-hangzhou, paperwidth-fit or datagen-grid400")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is drawn from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "out"), "directory for trace and profile files")
	flag.StringVar(&cfg.workDir, "work", filepath.Join(".bench_build", "work"), "directory for checkpoint scratch files")
	flag.Parse()
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.traced = trace == 1
	w, ok := specByName(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	for _, dir := range []string{cfg.outDir, cfg.workDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}

	// GOMAXPROCS and the parallel package's default worker count both equal
	// the CPUs this process may run on.
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel.SetWorkers(runtime.NumCPU())

	rep, err := run(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	prov, err := json.Marshal(map[string]any{"provenance": rep.prov})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(prov))
	fmt.Println(string(line))
	if !rep.correct() {
		os.Exit(1)
	}
}

// provenance stamps a result with what produced it.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Commit     string  `json:"commit"`
	// Ops counts the operations each median is taken over; a traced run
	// reports its untraced and traced operations separately.
	Ops       int `json:"ops"`
	TracedOps int `json:"traced_ops"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: parallel.Workers(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			p.Commit = rev
			if dirty {
				p.Commit += "+dirty"
			}
		}
	}
	return p
}

// report is the outcome of one run.
type report struct {
	prov              provenance
	attempted, failed int
	metrics           map[string]float64
	defs              []metricDef
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) result() map[string]any {
	ms := make(map[string]any, len(r.defs))
	for _, d := range r.defs {
		ms[d.Name] = map[string]any{"value": r.metrics[d.Name], "unit": d.Unit}
	}
	return map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	}
}

// run sets up, measures operations for cfg.seconds, probes the simulator
// and reduces everything to the run's metrics.
func run(ctx context.Context, w spec, cfg config) (*report, error) {
	rec := newRecorder()
	rep := &report{prov: newProvenance(cfg), defs: endToEnd}
	if cfg.traced {
		rep.defs = perLayer
	}

	var p *prepared
	var setupS, topoS []float64
	runtime.GC()
	setupStart := time.Now()
	for i := 0; i < minSetups || time.Since(setupStart).Seconds() < setupSeconds; i++ {
		keep := len(rec.spans)
		var err error
		if p, err = w.setup(ctx, rec, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s, _ := rec.last(0, "setup")
		setupS = append(setupS, s.delta().Wall.Seconds())
		t, _ := rec.last(0, "roadnet.topology")
		topoS = append(topoS, t.delta().Wall.Seconds())
		if i > 0 {
			rec.spans = rec.spans[:keep] // the trace keeps the first set-up only
		}
	}

	var (
		lastGood               *outcome
		firstPrint             uint64
		walls, plainW, tracedW []float64
		e2e, layers            []map[string]float64
		profiles               [][]byte
	)
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds()+median(walls) <= cfg.seconds; i++ {
		traced := cfg.traced && i%2 == 1
		run := i + 1
		runtime.GC()
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		rec.traced, rec.run = traced, run
		o, err := w.op(ctx, rec, p, cfg.seed, cfg.workDir)
		rec.traced, rec.run = false, 0
		if traced {
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		}
		rep.attempted++
		opSpan, _ := rec.last(run, "op")
		wall := opSpan.delta().Wall.Seconds()
		walls = append(walls, wall)
		if err == nil {
			err = w.check(o, cfg.seed)
		}
		if err == nil {
			fp := o.fingerprint()
			if lastGood == nil {
				firstPrint = fp
			} else if fp != firstPrint {
				err = fmt.Errorf("outputs differ from the run's first operation (fingerprint %016x, want %016x)", fp, firstPrint)
			}
		}
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d operation %d failed: %v\n", w.Name, cfg.seed, run, err)
			continue
		}
		lastGood = o
		switch {
		case traced:
			tracedW = append(tracedW, wall)
			layers = append(layers, layerValues(rec, run, w, o))
		case cfg.traced && i == 0:
			// The first operation of a traced run warms the process up and is
			// left out of the overhead comparison.
		default:
			plainW = append(plainW, wall)
			e2e = append(e2e, map[string]float64{
				"wall_s": wall,
				"cpu_s":  opSpan.delta().CPU.Seconds(),
			})
		}
	}
	rep.prov.Ops, rep.prov.TracedOps = len(plainW), len(tracedW)

	var ps probeStats
	if lastGood != nil {
		var err error
		ps, err = w.probe(ctx, rec, lastGood.env, cfg.traced)
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d probe failed: %v\n", w.Name, cfg.seed, err)
		}
	}

	var m map[string]float64
	if !cfg.traced {
		m = medians(e2e)
		m["setup_s"] = median(setupS)
		m["peak_rss_mb"] = peakRSSMB()
	} else {
		m = medians(layers)
		m["roadnet.topology_s"] = median(topoS)
		d := summarize(ps.runMs)
		m["sim.run_ms.p50"], m["sim.run_ms.top"], m["sim.run_ms.top_pct"], m["sim.run_ms.n"] = d.P50, d.Top, d.TopPct, float64(d.N)
		m["sim.spawned"] = float64(ps.spawned)
		m["sim.completed_frac"] = ratio(float64(ps.completed), float64(ps.spawned))
		m["sim.dijkstra_calls"] = float64(ps.dijkstra)
		shares := newCPUShares()
		for _, prof := range profiles {
			if err := shares.add(prof); err != nil {
				return nil, err
			}
		}
		for _, g := range cpuGroups {
			m["cpu."+g.name+"_share"] = shares.share(g.name)
		}
		m["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
		m["trace.overhead_s"] = median(tracedW) - median(plainW)
		if err := writeTrace(cfg, rec, rep.prov, profiles); err != nil {
			return nil, err
		}
	}
	for k, v := range m {
		if math.IsNaN(v) { // no successful operation fed this metric
			m[k] = 0
		}
	}
	rep.metrics = m
	fmt.Fprintf(os.Stderr, "operation wall times (s): %.4g\n", walls)
	for _, d := range rep.defs {
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	return rep, nil
}

// medians reduces per-operation values to their medians.
func medians(rows []map[string]float64) map[string]float64 {
	cols := make(map[string][]float64)
	for _, r := range rows {
		for k, v := range r {
			cols[k] = append(cols[k], v)
		}
	}
	out := make(map[string]float64, len(cols))
	for k, vs := range cols {
		out[k] = median(vs)
	}
	return out
}

// writeTrace writes the run's spans as Chrome trace-event JSON, and each
// traced operation's CPU profile, into cfg.outDir.
func writeTrace(cfg config, rec *recorder, prov provenance, profiles [][]byte) error {
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	data, err := chromeTrace(rec.spans, prov)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", data, 0o644); err != nil {
		return err
	}
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s-traced%d.cpu.pprof", base, i+1), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}
