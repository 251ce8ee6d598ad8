// Hangzhou Sunday (Case study 1, Fig. 12 of the paper): on a big-city
// network, weekend shoppers travel from residential region A to commercial
// region B with peaks around 10 am and 6 pm, and return late in the evening
// (8 pm - 1 am). OVS sees only road speeds over 24 hourly intervals and
// should recover those peaks.
//
//	go run ./examples/hangzhou_sunday
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"

	"ovs"
)

func main() {
	// Ctrl-C cancels the run at the next simulator interval or epoch boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	const seed = 5
	cs, err := ovs.CaseStudy1(2.0, seed)
	if err != nil {
		log.Fatal(err)
	}
	city := cs.City
	fmt.Printf("%s: %d intersections, %d links, %d OD pairs, %d hourly intervals\n",
		cs.Name, city.Net.NumNodes(), city.Net.NumLinks(), city.NumPairs(), cs.Intervals)

	simulator := ovs.NewSimulator(city.Net, ovs.SimConfig{
		Intervals: cs.Intervals, IntervalSec: 300, Seed: seed,
	})
	obs, err := simulator.RunCtx(ctx, ovs.Demand{ODs: city.ODs, G: cs.G})
	if err != nil {
		log.Fatal(err)
	}

	// Training data sweeping demand scales.
	rng := rand.New(rand.NewSource(seed))
	var samples []ovs.Sample
	maxTrips := cs.G.Max()
	for i := 0; i < 10; i++ {
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

	// Over a 24-hour horizon, speed alone cannot disambiguate which of two
	// opposite-direction ODs causes the evening congestion — the paper's
	// multiple-solutions issue (§I, RQ2). Hangzhou is exactly where the
	// paper has taxi-GPS auxiliary data, so we add the §IV-E trajectory
	// loss: a noisy 12%-penetration taxi view of a few ODs (including the
	// focus pair), fleet-scaled.
	trajIdx := []int{cs.Focus["A->B"], cs.Focus["B->A"], 0, 1, 2}
	trajG := ovs.NewTensor(len(trajIdx), cs.Intervals)
	for r, i := range trajIdx {
		for t := 0; t < cs.Intervals; t++ {
			trajG.Set(cs.G.At(i, t)*(1+0.25*rng.NormFloat64()), r, t)
		}
	}
	aux := &ovs.AuxData{TrajODIdx: trajIdx, TrajG: trajG, TrajWeight: 8}

	recovered, err := model.TrainFullCtx(ctx, samples, obs.Speed, 25, 20, 400, aux)
	if err != nil {
		log.Fatal(err)
	}

	// Print the recovered series for the two focus ODs as hourly bars.
	for _, label := range []string{"A->B", "B->A"} {
		idx := cs.Focus[label]
		rec := recovered.Row(idx)
		truth := cs.G.Row(idx)
		fmt.Printf("\n%s (residential A %s commercial B)\n", label, arrow(label))
		fmt.Println("hour        " + hourAxis(cs.Intervals))
		fmt.Println("truth       " + bars(truth.Data))
		fmt.Println("recovered   " + bars(rec.Data))
	}
	fmt.Println("\nexpected story: A->B peaks ~10:00 and ~18:00 (shopping);")
	fmt.Println("B->A peaks 20:00-01:00 (late return home).")
}

func arrow(label string) string {
	if strings.HasPrefix(label, "A") {
		return "to"
	}
	return "from"
}

func hourAxis(t int) string {
	var b strings.Builder
	for h := 0; h < t; h++ {
		fmt.Fprintf(&b, "%d", h%10)
	}
	return b.String()
}

func bars(values []float64) string {
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
