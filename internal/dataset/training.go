package dataset

import (
	"context"
	"fmt"
	"math/rand"

	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// Sample is one generated training triple of the Fig. 7 protocol: a TOD
// tensor and the volume/speed tensors the simulator produced from it.
type Sample struct {
	G      *tensor.Tensor // (N_od × T)
	Volume *tensor.Tensor // (M × T)
	Speed  *tensor.Tensor // (M × T)
}

// GenerateOptions controls training-data generation.
type GenerateOptions struct {
	// Count is the number of samples. Patterns cycle so each of the five
	// contributes 20%.
	Count int
	// TOD generation parameters.
	TOD TODConfig
	// ScaleJitter, when both bounds are positive, multiplies each sample's
	// demand scale by a uniform draw from [lo, hi]. Spanning light to heavy
	// congestion in the training set is essential when the observation's
	// regime is unknown.
	ScaleJitter [2]float64
	// Seed drives both TOD sampling and per-sample simulator seeds.
	Seed int64
}

// GenerateCtx runs the training-stage data generation of Fig. 7: it draws
// TOD tensors from the five patterns over the city's OD pairs and simulates
// each to obtain volume and speed. The simulator must be configured with the
// same interval count as opts.TOD.Intervals. ctx is observed between samples
// and at the simulator's interval boundaries, so a cancelled call returns the
// context's cancellation cause without a partial sample.
func GenerateCtx(ctx context.Context, s *sim.Simulator, city *City, opts GenerateOptions) ([]Sample, error) {
	if opts.Count <= 0 {
		return nil, fmt.Errorf("dataset: Generate needs Count > 0")
	}
	opts.TOD.Pairs = city.NumPairs()
	if opts.TOD.Intervals <= 0 {
		opts.TOD.Intervals = s.Cfg.Intervals
	}
	if opts.TOD.Intervals != s.Cfg.Intervals {
		return nil, fmt.Errorf("dataset: TOD intervals %d != simulator intervals %d", opts.TOD.Intervals, s.Cfg.Intervals)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	samples := make([]Sample, 0, opts.Count)
	baseScale := opts.TOD.Scale
	if baseScale <= 0 {
		baseScale = 1
	}
	for i := 0; i < opts.Count; i++ {
		cfg := opts.TOD
		if lo, hi := opts.ScaleJitter[0], opts.ScaleJitter[1]; lo > 0 && hi >= lo {
			cfg.Scale = baseScale * (lo + rng.Float64()*(hi-lo))
		}
		g := MixedTOD(i, cfg, rng)
		runner := sim.New(s.Net, s.Cfg)
		runner.Cfg.Seed = opts.Seed + int64(i)*7919
		res, err := runner.RunCtx(ctx, sim.Demand{ODs: city.ODs, G: g})
		if err != nil {
			return nil, fmt.Errorf("dataset: sample %d simulation: %w", i, err)
		}
		samples = append(samples, Sample{G: g, Volume: res.Volume, Speed: res.Speed})
	}
	return samples, nil
}

// GroundTruthCtx simulates the city's ground-truth TOD to produce the hidden
// test observation (Fig. 7's testing stage): groundtruth volume and speed.
// ctx is observed at the simulator's interval boundaries.
func GroundTruthCtx(ctx context.Context, s *sim.Simulator, city *City, scale float64, seed int64) (Sample, error) {
	rng := rand.New(rand.NewSource(seed))
	g := city.GroundTruthTOD(s.Cfg.Intervals, scale, rng)
	runner := sim.New(s.Net, s.Cfg)
	runner.Cfg.Seed = seed + 1
	res, err := runner.RunCtx(ctx, sim.Demand{ODs: city.ODs, G: g})
	if err != nil {
		return Sample{}, fmt.Errorf("dataset: ground truth simulation: %w", err)
	}
	return Sample{G: g, Volume: res.Volume, Speed: res.Speed}, nil
}
