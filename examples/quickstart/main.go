// Quickstart: recover a hidden TOD tensor from speed observations on a 3×3
// grid — the full OVS pipeline (Fig. 8 of the paper) in one file.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ovs"
)

func main() {
	ctx := context.Background()

	const (
		intervals   = 6   // T: observation intervals
		intervalSec = 300 // 5-minute intervals
		nSamples    = 8   // generated training triples
		seed        = 7
	)

	// 1. Build the city: a 3×3 grid where every intersection is a region,
	// with 6 OD pairs chosen between regions.
	city := ovs.SyntheticGrid(6, seed)
	simulator := ovs.NewSimulator(city.Net, ovs.SimConfig{
		Intervals: intervals, IntervalSec: intervalSec, Seed: seed,
	})
	fmt.Printf("city: %d intersections, %d links, %d OD pairs\n",
		city.Net.NumNodes(), city.Net.NumLinks(), city.NumPairs())

	// 2. Generate training data (Fig. 7): random TOD tensors simulated into
	// (volume, speed) observations.
	rng := rand.New(rand.NewSource(seed))
	var samples []ovs.Sample
	maxTrips := 0.0
	for i := 0; i < nSamples; i++ {
		g := ovs.GenerateTOD(ovs.Pattern(i%5), ovs.TODConfig{
			Pairs: city.NumPairs(), Intervals: intervals,
			IntervalMinutes: intervalSec / 60, Scale: 0.8,
		}, rng)
		res, err := simulator.RunCtx(ctx, ovs.Demand{ODs: city.ODs, G: g})
		if err != nil {
			log.Fatal(err)
		}
		samples = append(samples, ovs.Sample{G: g, Volume: res.Volume, Speed: res.Speed})
		if g.Max() > maxTrips {
			maxTrips = g.Max()
		}
	}

	// 3. Hide a ground-truth TOD: the model will see only its speeds.
	hidden := ovs.GenerateTOD(ovs.PatternGaussian, ovs.TODConfig{
		Pairs: city.NumPairs(), Intervals: intervals,
		IntervalMinutes: intervalSec / 60, Scale: 0.6,
	}, rng)
	obs, err := simulator.RunCtx(ctx, ovs.Demand{ODs: city.ODs, G: hidden})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hidden TOD: %.0f total trips; observed speeds %.1f-%.1f m/s\n",
		hidden.Sum(), obs.Speed.Min(), obs.Speed.Max())

	// 4. Build and train OVS: stage 1 (volume→speed), stage 2 (TOD→volume),
	// then fit the TOD generator to the observed speeds.
	pairs := make([][2]int, len(city.ODs))
	for i, od := range city.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := ovs.NewTopology(city.Net, pairs, intervals, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ovs.DefaultModelConfig()
	cfg.MaxTrips = maxTrips * 1.2
	cfg.Seed = seed
	// Start the TOD generator at the mean training demand level — a better
	// prior than the sigmoid midpoint.
	meanG := 0.0
	for _, s := range samples {
		meanG += s.G.Mean()
	}
	cfg.InitTripLevel = meanG / float64(len(samples)) / cfg.MaxTrips
	model := ovs.NewModel(topo, cfg)

	recovered, err := model.TrainFullCtx(ctx, samples, obs.Speed, 15, 12, 80, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Score the recovery with the paper's metric and verify it by pushing
	// the recovered TOD back through the simulator.
	fmt.Printf("RMSE(recovered TOD, hidden TOD) = %.2f trips\n", ovs.TensorRMSE(recovered, hidden))
	check, err := simulator.RunCtx(ctx, ovs.Demand{ODs: city.ODs, G: recovered})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RMSE(simulated speed of recovery, observed speed) = %.2f m/s\n",
		ovs.TensorRMSE(check.Speed, obs.Speed))
}
