// Football game (Case study 2, Fig. 13 of the paper): on a college-town
// network, fans drive toward the stadium on a Saturday morning before a noon
// kickoff. OVS sees only the road speeds and should recover the ~9 am surge,
// with the two highway-gate origins (O1, O3) carrying far more traffic than
// the local residential origin (O2).
//
//	go run ./examples/football_game
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"

	"ovs"
)

func main() {
	// Ctrl-C cancels the run at the next simulator interval or epoch boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	const seed = 3
	cs, err := ovs.CaseStudy2(2.0, seed)
	if err != nil {
		log.Fatal(err)
	}
	city := cs.City
	fmt.Printf("%s: %d intersections, %d links, %d OD pairs, %d hourly intervals from %d:00\n",
		cs.Name, city.Net.NumNodes(), city.Net.NumLinks(), city.NumPairs(), cs.Intervals, cs.StartHour)

	// Observed speed feed: the scenario TOD through the simulator (the
	// paper's Google-Maps stand-in).
	simulator := ovs.NewSimulator(city.Net, ovs.SimConfig{
		Intervals: cs.Intervals, IntervalSec: 300, Seed: seed,
	})
	obs, err := simulator.RunCtx(ctx, ovs.Demand{ODs: city.ODs, G: cs.G})
	if err != nil {
		log.Fatal(err)
	}

	// Training data from the five synthetic patterns.
	rng := rand.New(rand.NewSource(seed))
	var samples []ovs.Sample
	maxTrips := cs.G.Max()
	for i := 0; i < 10; i++ {
		// Sweep demand scales so training covers light through heavy traffic.
		g := ovs.GenerateTOD(ovs.Pattern(i%5), ovs.TODConfig{
			Pairs: city.NumPairs(), Intervals: cs.Intervals,
			IntervalMinutes: 5, Scale: 0.2 + 0.2*float64(i),
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

	// Train OVS and fit the observed speeds.
	pairs := make([][2]int, len(city.ODs))
	for i, od := range city.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := ovs.NewTopology(city.Net, pairs, cs.Intervals, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ovs.DefaultModelConfig()
	cfg.MaxTrips = maxTrips * 1.2
	cfg.Seed = seed
	meanG, maxVol := 0.0, 0.0
	for _, s := range samples {
		meanG += s.G.Mean()
		if s.Volume.Max() > maxVol {
			maxVol = s.Volume.Max()
		}
	}
	cfg.InitTripLevel = meanG / float64(len(samples)) / cfg.MaxTrips
	cfg.VolumeNorm = maxVol / 4
	cfg.VolumeLossWeight = 3
	model := ovs.NewModel(topo, cfg)
	recovered, err := model.TrainFullCtx(ctx, samples, obs.Speed, 20, 15, 200, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Report each focus OD's recovered series and peak hour.
	sums := map[string]float64{}
	for label, idx := range cs.Focus {
		row := recovered.Row(idx)
		peak := 0
		for t := 0; t < cs.Intervals; t++ {
			if row.At(t) > row.At(peak) {
				peak = t
			}
		}
		sums[label] = row.Sum()
		fmt.Printf("%-14s recovered peak at %2d:00, day total %.0f trips\n",
			label, cs.HourOf(peak), row.Sum())
	}
	if sums["O1->Stadium"] > sums["O2->Stadium"] && sums["O3->Stadium"] > sums["O2->Stadium"] {
		fmt.Println("✓ highway gates O1/O3 dominate the local origin O2, as in Fig. 13")
	} else {
		fmt.Println("✗ expected O1/O3 > O2 (try more training epochs)")
	}
}
