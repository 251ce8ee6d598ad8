package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"ovs/internal/ckpt"
	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/experiment"
	"ovs/internal/metrics"
	"ovs/internal/roadnet"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// spec is one benchmark workload. One operation generates the training data
// and the hidden ground truth (Fig. 7), and, when Model is set, builds a
// model, trains both mappings (Fig. 8), fits the observed speed and
// evaluates the recovery (§V-G).
type spec struct {
	Name string
	// City builds the road network, regions and OD pairs for a seed.
	City  func(seed int64) *dataset.City
	Scale experiment.Scale
	// ScaleJitter spreads the training samples' demand scales as in
	// dataset.GenerateOptions; zero draws every sample at Scale.TODScale.
	ScaleJitter [2]float64
	Routing     sim.RoutingMode
	// Model returns the base model configuration; nil makes the operation
	// data generation only.
	Model    func() core.Config
	Restarts int
	// Checkpoint runs the fit through core.Checkpointer into a fresh
	// directory and reads the newest checkpoint back with ckpt.Latest.
	Checkpoint bool
	// Golden is the RMSE triple the operation must reproduce at seed 1, to
	// the two decimals EXPERIMENTS.md prints.
	Golden *metrics.Triple
}

// envJitter is experiment.NewEnv's demand-scale spread for training samples.
var envJitter = [2]float64{0.5, 1.5}

func specs() []spec {
	hangzhou := func(seed int64) *dataset.City {
		return dataset.Hangzhou(dataset.CityOptions{ODPairs: experiment.TestScale().ODPairs, Seed: seed})
	}
	// A short training on half the samples keeps an operation near six
	// seconds; the fit is long enough for the pack cache's hits to dominate.
	paper := experiment.TestScale()
	paper.Samples = 4
	paper.V2SEpochs, paper.T2VEpochs, paper.FitEpochs = 1, 1, 8
	return []spec{
		{
			// EXPERIMENTS.md Table VI, Hangzhou row, OVS.
			Name: "pipeline-hangzhou", City: hangzhou, Scale: experiment.TestScale(),
			ScaleJitter: envJitter, Model: core.DefaultConfig, Restarts: 1,
			Golden: &metrics.Triple{TOD: 13.98, Volume: 0.54, Speed: 0.06},
		},
		{
			Name: "paperwidth-fit", City: hangzhou, Scale: paper, ScaleJitter: envJitter,
			Model: core.PaperConfig, Restarts: 2, Checkpoint: true,
		},
		{
			// No ScaleJitter: simulator time follows the total demand, and
			// with the harness's jitter the mean scale of ten samples alone
			// moves an operation by about a tenth from seed to seed; without
			// it the seeds' total demands agree within 1%.
			Name: "datagen-grid400",
			City: func(seed int64) *dataset.City { return gridCity(400, 48, seed) },
			Scale: experiment.Scale{
				Samples: 10, TODScale: 1, GTScale: 0.7,
				Intervals: 12, IntervalSec: 300,
			},
			Routing: sim.DynamicRouting,
		},
	}
}

func specByName(name string) (spec, bool) {
	for _, w := range specs() {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// gridCity builds the Fig. 9 synthetic city the way experiment.RunScalability
// does: a near-square grid of about n intersections, a 3×3 region partition
// and `pairs` OD pairs drawn from the seed.
func gridCity(n, pairs int, seed int64) *dataset.City {
	net := roadnet.GridForIntersections(n)
	rng := rand.New(rand.NewSource(seed))
	regions := roadnet.Partition(net, 3, 3, rng)
	city := &dataset.City{
		Name:    fmt.Sprintf("grid-%d", n),
		Net:     net,
		Regions: regions,
		Kinds:   make([]dataset.RegionKind, len(regions)),
		Pairs:   roadnet.SelectODPairs(regions, pairs, rng),
	}
	city.ResolveODs()
	return city
}

// prepared is what set-up builds; the operations of a run share it.
type prepared struct {
	city *dataset.City
	topo *core.Topology
}

// setup builds the city, its routed topology and (for training workloads) a
// model, each as its own span.
func (w spec) setup(ctx context.Context, rec *recorder, seed int64) (*prepared, error) {
	p := &prepared{}
	err := rec.stage(ctx, "setup", func(ctx context.Context) error {
		if err := rec.stage(ctx, "dataset.city", func(context.Context) error {
			p.city = w.City(seed)
			return nil
		}); err != nil {
			return err
		}
		if err := rec.stage(ctx, "roadnet.topology", func(context.Context) error {
			pairs := make([][2]int, len(p.city.ODs))
			for i, od := range p.city.ODs {
				pairs[i] = [2]int{od.Origin, od.Dest}
			}
			var err error
			p.topo, err = core.NewTopology(p.city.Net, pairs, w.Scale.Intervals, 1)
			return err
		}); err != nil {
			return err
		}
		if w.Model == nil {
			return nil
		}
		return rec.stage(ctx, "core.model", func(context.Context) error {
			if m := core.NewModel(p.topo, w.Model()); len(m.Params()) == 0 {
				return errors.New("model has no parameters")
			}
			return nil
		})
	})
	return p, err
}

// outcome is what one operation produced.
type outcome struct {
	env                       *experiment.Env
	tod                       *tensor.Tensor // recovered TOD; nil without a model
	triple                    metrics.Triple
	v2sHist, t2vHist, fitHist []float64
	ckptFiles                 int
	ckptBytes                 int64
}

// op runs one operation. Every call into the program is its own span;
// the checks run after the operation's span closes.
func (w spec) op(ctx context.Context, rec *recorder, p *prepared, seed int64, workDir string) (*outcome, error) {
	out := &outcome{}
	var dir string
	if w.Checkpoint {
		var err error
		if dir, err = os.MkdirTemp(workDir, "ckpt-"); err != nil {
			return nil, err
		}
	}
	err := rec.stage(ctx, "op", func(ctx context.Context) error {
		if err := rec.stage(ctx, "datagen", func(ctx context.Context) error {
			var err error
			out.env, err = w.generate(ctx, rec, p.city, seed)
			return err
		}); err != nil || w.Model == nil {
			return err
		}
		var m *core.Model
		if err := rec.stage(ctx, "core.build", func(context.Context) error {
			m = core.NewModel(p.topo, calibrate(w.Model(), out.env, w.Restarts))
			return nil
		}); err != nil {
			return err
		}
		if err := rec.stage(ctx, "train", func(ctx context.Context) error {
			if err := rec.stage(ctx, "core.v2s", func(ctx context.Context) error {
				var err error
				out.v2sHist, err = m.TrainV2SCtx(ctx, out.env.Samples, w.Scale.V2SEpochs)
				return err
			}); err != nil {
				return err
			}
			return rec.stage(ctx, "core.t2v", func(ctx context.Context) error {
				var err error
				out.t2vHist, err = m.TrainT2VCtx(ctx, out.env.Samples, w.Scale.T2VEpochs)
				return err
			})
		}); err != nil {
			return err
		}
		if err := rec.stage(ctx, "core.fit", func(ctx context.Context) error {
			var err error
			if !w.Checkpoint {
				out.tod, out.fitHist, err = m.FitBestCtx(ctx, out.env.GT.Speed, w.Scale.FitEpochs, w.Restarts, nil)
				return err
			}
			// Keep every checkpoint so the file count equals the writes.
			c, err := core.NewCheckpointer(m, core.CkptOptions{Dir: dir, Keep: math.MaxInt32})
			if err != nil {
				return err
			}
			out.tod, out.fitHist, err = c.FitBest(ctx, out.env.GT.Speed, w.Scale.FitEpochs, w.Restarts, nil)
			return err
		}); err != nil {
			return err
		}
		if w.Checkpoint {
			if err := rec.stage(ctx, "ckpt.read", func(context.Context) error {
				snap, _, err := ckpt.Latest(dir)
				if err != nil {
					return err
				}
				if snap.Stage != core.StageFitRestarts || len(snap.Restarts) != w.Restarts {
					return fmt.Errorf("newest checkpoint is stage %q with %d restarts, want %q with %d",
						snap.Stage, len(snap.Restarts), core.StageFitRestarts, w.Restarts)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return rec.stage(ctx, "core.eval", func(ctx context.Context) error {
			var err error
			out.triple, err = out.env.Evaluate(ctx, out.tod)
			return err
		})
	})
	if w.Checkpoint {
		files, bytes, lerr := ckptFiles(dir)
		out.ckptFiles, out.ckptBytes = files, bytes
		err = errors.Join(err, lerr, os.RemoveAll(dir))
	}
	return out, err
}

// generate is experiment.NewEnv (the Fig. 7 protocol) with the two dataset
// calls timed separately; at seed 1 the Table VI gate checks that both give
// the same environment.
func (w spec) generate(ctx context.Context, rec *recorder, city *dataset.City, seed int64) (*experiment.Env, error) {
	sc := w.Scale
	simCfg := sim.Config{Intervals: sc.Intervals, IntervalSec: sc.IntervalSec, Routing: w.Routing, Seed: seed}
	simulator := sim.New(city.Net, simCfg)
	var raw []dataset.Sample
	if err := rec.stage(ctx, "dataset.generate", func(ctx context.Context) error {
		var err error
		raw, err = dataset.GenerateCtx(ctx, simulator, city, dataset.GenerateOptions{
			Count:       sc.Samples,
			TOD:         dataset.TODConfig{Intervals: sc.Intervals, IntervalMinutes: sc.IntervalSec / 60, Scale: sc.TODScale},
			ScaleJitter: w.ScaleJitter,
			Seed:        seed + 1,
		})
		return err
	}); err != nil {
		return nil, err
	}
	var gt dataset.Sample
	if err := rec.stage(ctx, "dataset.ground_truth", func(ctx context.Context) error {
		var err error
		gt, err = dataset.GroundTruthCtx(ctx, simulator, city, sc.GTScale, seed+2)
		return err
	}); err != nil {
		return nil, err
	}
	samples := make([]core.Sample, len(raw))
	for i, s := range raw {
		samples[i] = core.Sample{G: s.G, Volume: s.Volume, Speed: s.Speed}
	}
	return &experiment.Env{
		City: city, SimCfg: simCfg, Samples: samples,
		GT:    core.Sample{G: gt.G, Volume: gt.Volume, Speed: gt.Speed},
		Scale: sc, Seed: seed,
	}, nil
}

// calibrate fits a base configuration to the environment's data the way
// the experiment harness does: MaxTrips from the demand range,
// InitTripLevel from the mean demand, VolumeNorm from the occupancy range.
func calibrate(cfg core.Config, env *experiment.Env, restarts int) core.Config {
	cfg.MaxTrips = env.MaxTrips()
	meanG, maxVol := 0.0, 0.0
	for _, s := range env.Samples {
		meanG += s.G.Mean()
		maxVol = max(maxVol, s.Volume.Max())
	}
	meanG /= float64(len(env.Samples))
	cfg.InitTripLevel = meanG / cfg.MaxTrips
	if maxVol > 0 {
		cfg.VolumeNorm = maxVol / 4
	}
	cfg.Seed = env.Seed + 5
	cfg.FitRestarts = restarts
	return cfg
}

func ckptFiles(dir string) (int, int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	n, size := 0, int64(0)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".ovsckpt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		n++
		size += info.Size()
	}
	return n, size, nil
}

// check validates one operation's outputs.
func (w spec) check(o *outcome, seed int64) error {
	var errs []error
	env := o.env
	for i, s := range append(append([]core.Sample(nil), env.Samples...), env.GT) {
		if err := checkTraffic(env.City.Net, s.Volume, s.Speed); err != nil {
			errs = append(errs, fmt.Errorf("sample %d: %w", i, err))
		}
		if err := checkFinite(s.G); err != nil || s.G.Min() < 0 {
			errs = append(errs, fmt.Errorf("sample %d: TOD not finite and non-negative (%v)", i, err))
		}
	}
	if len(env.Samples) != w.Scale.Samples {
		errs = append(errs, fmt.Errorf("%d samples, want %d", len(env.Samples), w.Scale.Samples))
	}
	if w.Model == nil {
		return errors.Join(errs...)
	}
	if err := checkFinite(o.tod); err != nil {
		errs = append(errs, fmt.Errorf("recovered TOD: %w", err))
	}
	for i, h := range [][]float64{o.v2sHist, o.t2vHist, o.fitHist} {
		if len(h) == 0 || !allFinite(h) {
			errs = append(errs, fmt.Errorf("%s loss history empty or not finite", []string{"v2s", "t2v", "fit"}[i]))
		}
	}
	t := o.triple
	if !allFinite([]float64{t.TOD, t.Volume, t.Speed}) {
		errs = append(errs, fmt.Errorf("RMSE triple not finite: %+v", t))
	}
	if g := w.Golden; g != nil && seed == 1 {
		if math.Abs(t.TOD-g.TOD) > 0.005 || math.Abs(t.Volume-g.Volume) > 0.005 || math.Abs(t.Speed-g.Speed) > 0.005 {
			errs = append(errs, fmt.Errorf("RMSE %.4f/%.4f/%.4f does not round to Table VI %.2f/%.2f/%.2f",
				t.TOD, t.Volume, t.Speed, g.TOD, g.Volume, g.Speed))
		}
	}
	if w.Checkpoint && o.ckptFiles != w.Restarts {
		errs = append(errs, fmt.Errorf("%d checkpoint files, want one per restart (%d)", o.ckptFiles, w.Restarts))
	}
	return errors.Join(errs...)
}

// fingerprint hashes an operation's outputs bit for bit (FNV-1a); every
// operation of a run must produce the first one's fingerprint.
func (o *outcome) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	add := func(t *tensor.Tensor) {
		if t == nil {
			return
		}
		for _, v := range t.Data {
			b := math.Float64bits(v)
			for i := 0; i < 64; i += 8 {
				h = (h ^ (b >> i & 0xff)) * 1099511628211
			}
		}
	}
	for _, s := range o.env.Samples {
		add(s.G)
		add(s.Volume)
		add(s.Speed)
	}
	add(o.env.GT.Speed)
	add(o.tod)
	return h
}

// checkTraffic asserts the simulator invariants on one (volume, speed)
// pair: finite, non-negative volume, and speeds in (0, speed limit].
func checkTraffic(net *roadnet.Network, vol, speed *tensor.Tensor) error {
	if err := checkFinite(vol); err != nil {
		return fmt.Errorf("volume: %w", err)
	}
	if err := checkFinite(speed); err != nil {
		return fmt.Errorf("speed: %w", err)
	}
	if vol.Min() < 0 {
		return fmt.Errorf("negative volume %g", vol.Min())
	}
	shape := speed.Shape()
	if len(shape) != 2 || shape[0] != len(net.Links) {
		return fmt.Errorf("speed shape %v, want %d links", shape, len(net.Links))
	}
	for j, l := range net.Links {
		for _, v := range speed.Data[j*shape[1] : (j+1)*shape[1]] {
			if v <= 0 || v > l.SpeedLimit*(1+1e-9) {
				return fmt.Errorf("link %d speed %g outside (0, %g]", j, v, l.SpeedLimit)
			}
		}
	}
	return nil
}

func checkFinite(t *tensor.Tensor) error {
	if t == nil {
		return errors.New("missing tensor")
	}
	if !allFinite(t.Data) {
		return errors.New("non-finite value")
	}
	return nil
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// probeStats summarises the post-run replay of an operation's demand
// through sim.(*Simulator).RunCtx.
type probeStats struct {
	runMs                        []float64
	spawned, completed, dijkstra int
}

// probe simulates the last operation's ground-truth demand, and in a traced
// run every training sample's demand too, with the workload's simulator
// configuration. It runs outside the measured window: it reads the
// simulator's own counters (sim.Result) and checks Completed ≤ Spawned.
func (w spec) probe(ctx context.Context, rec *recorder, env *experiment.Env, all bool) (probeStats, error) {
	var ps probeStats
	demands := []*tensor.Tensor{env.GT.G}
	if all {
		for _, s := range env.Samples {
			demands = append(demands, s.G)
		}
	}
	err := rec.stage(ctx, "probe", func(ctx context.Context) error {
		for i, g := range demands {
			var res *sim.Result
			if err := rec.stage(ctx, "sim.run", func(ctx context.Context) error {
				var err error
				res, err = sim.New(env.City.Net, env.SimCfg).RunCtx(ctx, sim.Demand{ODs: env.City.ODs, G: g})
				return err
			}); err != nil {
				return err
			}
			if s, ok := rec.last(rec.run, "sim.run"); ok {
				ps.runMs = append(ps.runMs, s.delta().Wall.Seconds()*1e3)
			}
			if res.Completed > res.Spawned || res.Spawned == 0 {
				return fmt.Errorf("demand %d: %d of %d vehicles completed", i, res.Completed, res.Spawned)
			}
			if err := checkTraffic(env.City.Net, res.Volume, res.Speed); err != nil {
				return fmt.Errorf("demand %d: %w", i, err)
			}
			ps.spawned += res.Spawned
			ps.completed += res.Completed
			ps.dijkstra += res.DijkstraCalls
		}
		return nil
	})
	return ps, err
}
