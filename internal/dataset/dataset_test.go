package dataset

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ovs/internal/sim"
)

func TestPatternNamesAndCount(t *testing.T) {
	if len(AllPatterns) != 5 {
		t.Fatalf("patterns = %d, want 5", len(AllPatterns))
	}
	names := map[string]bool{}
	for _, p := range AllPatterns {
		names[p.String()] = true
	}
	for _, want := range []string{"Random", "Increasing", "Decreasing", "Gaussian", "Poisson"} {
		if !names[want] {
			t.Fatalf("missing pattern %q", want)
		}
	}
}

func TestGenerateTODShapesAndNonNegativity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range AllPatterns {
		g := GenerateTOD(p, TODConfig{Pairs: 6, Intervals: 12}, rng)
		if g.Dim(0) != 6 || g.Dim(1) != 12 {
			t.Fatalf("%v: shape %v", p, g.Shape())
		}
		for _, v := range g.Data {
			if v < 0 {
				t.Fatalf("%v produced negative count", p)
			}
		}
	}
}

func TestRandomPatternRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := GenerateTOD(PatternRandom, TODConfig{Pairs: 20, Intervals: 12}, rng)
	// Rates 1..20 veh/min over 10-minute intervals → counts in [10, 200].
	if g.Min() < 10 || g.Max() > 200 {
		t.Fatalf("random counts out of [10,200]: min=%v max=%v", g.Min(), g.Max())
	}
}

func TestIncreasingDecreasingTrends(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inc := GenerateTOD(PatternIncreasing, TODConfig{Pairs: 50, Intervals: 12}, rng)
	dec := GenerateTOD(PatternDecreasing, TODConfig{Pairs: 50, Intervals: 12}, rng)
	// Column means must trend in the right direction.
	colMean := func(g interface{ At(...int) float64 }, t, rows int) float64 {
		s := 0.0
		for i := 0; i < rows; i++ {
			s += g.At(i, t)
		}
		return s / float64(rows)
	}
	if colMean(inc, 11, 50) <= colMean(inc, 0, 50) {
		t.Fatal("increasing pattern does not increase")
	}
	if colMean(dec, 11, 50) >= colMean(dec, 0, 50) {
		t.Fatal("decreasing pattern does not decrease")
	}
}

func TestGaussianPatternMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := GenerateTOD(PatternGaussian, TODConfig{Pairs: 100, Intervals: 20}, rng)
	mean := g.Mean() / 10 // back to veh/min
	if math.Abs(mean-10) > 0.5 {
		t.Fatalf("gaussian mean %v veh/min, want ≈10", mean)
	}
}

func TestPoissonHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, 3)
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("poisson mean = %v, want ≈3", mean)
	}
}

func TestScaleShrinksCounts(t *testing.T) {
	rng1 := rand.New(rand.NewSource(6))
	rng2 := rand.New(rand.NewSource(6))
	full := GenerateTOD(PatternRandom, TODConfig{Pairs: 4, Intervals: 6}, rng1)
	half := GenerateTOD(PatternRandom, TODConfig{Pairs: 4, Intervals: 6, Scale: 0.5}, rng2)
	for i := range full.Data {
		if math.Abs(half.Data[i]-0.5*full.Data[i]) > 1e-9 {
			t.Fatal("Scale is not a pure multiplier")
		}
	}
}

func TestMixedTODCyclesPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := TODConfig{Pairs: 3, Intervals: 4}
	// Sample 0 and 5 use the same pattern slot (Random).
	_ = MixedTOD(0, cfg, rng)
	_ = MixedTOD(5, cfg, rng)
	// Just exercise all slots without panicking.
	for i := 0; i < 10; i++ {
		g := MixedTOD(i, cfg, rng)
		if g.Dim(0) != 3 || g.Dim(1) != 4 {
			t.Fatalf("MixedTOD %d shape %v", i, g.Shape())
		}
	}
}

func TestCityPresetsScale(t *testing.T) {
	cases := []struct {
		city    *City
		nodesLo int
		nodesHi int
		roadsLo int
		roadsHi int
	}{
		{Hangzhou(CityOptions{Seed: 1}), 40, 55, 50, 85},
		{Porto(CityOptions{Seed: 1}), 60, 85, 85, 140},
		{Manhattan(CityOptions{Seed: 1}), 100, 100, 180, 180},
		{StateCollege(CityOptions{Seed: 1}), 12, 18, 12, 22},
	}
	for _, tc := range cases {
		nodes := tc.city.Net.NumNodes()
		roads := tc.city.Net.NumLinks() / 2
		if nodes < tc.nodesLo || nodes > tc.nodesHi {
			t.Fatalf("%s: %d intersections, want [%d,%d]", tc.city.Name, nodes, tc.nodesLo, tc.nodesHi)
		}
		if roads < tc.roadsLo || roads > tc.roadsHi {
			t.Fatalf("%s: %d roads, want [%d,%d]", tc.city.Name, roads, tc.roadsLo, tc.roadsHi)
		}
		if !tc.city.Net.StronglyConnected() {
			t.Fatalf("%s not strongly connected", tc.city.Name)
		}
		if len(tc.city.Pairs) == 0 || len(tc.city.Pairs) != len(tc.city.ODs) {
			t.Fatalf("%s: pairs/ODs mismatch", tc.city.Name)
		}
		if len(tc.city.Kinds) != len(tc.city.Regions) {
			t.Fatalf("%s: kinds not aligned with regions", tc.city.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range append(RealCityNames, "StateCollege") {
		c, err := ByName(name, CityOptions{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, c.Name)
		}
	}
	if _, err := ByName("Atlantis", CityOptions{}); err == nil {
		t.Fatal("unknown city did not error")
	}
}

func TestClassifyRegionsMix(t *testing.T) {
	c := Manhattan(CityOptions{Seed: 3})
	res, com := 0, 0
	for _, k := range c.Kinds {
		switch k {
		case KindResidential:
			res++
		case KindCommercial:
			com++
		}
	}
	if res == 0 || com == 0 {
		t.Fatalf("classification degenerate: %d residential, %d commercial", res, com)
	}
}

func TestGroundTruthTODStructure(t *testing.T) {
	c := Hangzhou(CityOptions{Seed: 4})
	rng := rand.New(rand.NewSource(5))
	g := c.GroundTruthTOD(12, 1.0, rng)
	if g.Dim(0) != c.NumPairs() || g.Dim(1) != 12 {
		t.Fatalf("shape %v", g.Shape())
	}
	if g.Min() < 0 {
		t.Fatal("negative trips")
	}
	if g.Sum() == 0 {
		t.Fatal("empty ground truth")
	}
	// Deterministic per seed.
	g2 := c.GroundTruthTOD(12, 1.0, rand.New(rand.NewSource(5)))
	for i := range g.Data {
		if g.Data[i] != g2.Data[i] {
			t.Fatal("ground truth not deterministic")
		}
	}
}

func TestCensusFromTOD(t *testing.T) {
	c := SyntheticGrid(6, 6)
	rng := rand.New(rand.NewSource(7))
	g := c.GroundTruthTOD(8, 1, rng)
	census := CensusFromTOD(g, 0, rng)
	for i := range census.DailySum {
		if math.Abs(census.DailySum[i]-g.Row(i).Sum()) > 1e-9 {
			t.Fatal("noise-free census must equal row sums")
		}
	}
	noisy := CensusFromTOD(g, 0.2, rng)
	diff := 0.0
	for i := range noisy.DailySum {
		diff += math.Abs(noisy.DailySum[i] - g.Row(i).Sum())
		if noisy.DailySum[i] < 0 {
			t.Fatal("negative census value")
		}
	}
	if diff == 0 {
		t.Fatal("noisy census identical to truth")
	}
}

func TestCamerasFromVolume(t *testing.T) {
	c := SyntheticGrid(6, 8)
	s := sim.New(c.Net, sim.Config{Intervals: 4, IntervalSec: 120, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	g := GenerateTOD(PatternRandom, TODConfig{Pairs: c.NumPairs(), Intervals: 4, Scale: 0.1}, rng)
	res, err := s.RunCtx(context.Background(), sim.Demand{ODs: c.ODs, G: g})
	if err != nil {
		t.Fatal(err)
	}
	cams, err := CamerasFromVolume(res.Volume, 5, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cams.Links) != 5 || cams.Volume.Dim(0) != 5 || cams.Volume.Dim(1) != 4 {
		t.Fatalf("camera shapes wrong: %v links, vol %v", len(cams.Links), cams.Volume.Shape())
	}
	seen := map[int]bool{}
	for _, l := range cams.Links {
		if seen[l] {
			t.Fatal("duplicate camera link")
		}
		seen[l] = true
	}
	if _, err := CamerasFromVolume(res.Volume, 0, 0, rng); err == nil {
		t.Fatal("numCams=0 did not error")
	}
	if _, err := CamerasFromVolume(res.Volume, 10_000, 0, rng); err == nil {
		t.Fatal("numCams>M did not error")
	}
}

func TestTrajectoriesFromTOD(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := GenerateTOD(PatternGaussian, TODConfig{Pairs: 10, Intervals: 6}, rng)
	tr, err := TrajectoriesFromTOD(g, 4, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.ODIdx) != 4 || tr.G.Dim(0) != 4 || tr.G.Dim(1) != 6 {
		t.Fatal("trajectory shapes wrong")
	}
	scaled := tr.ScaleToFleet()
	// Scaled means should be near the underlying rows on average.
	var obs, truth float64
	for r, i := range tr.ODIdx {
		obs += scaled.Row(r).Sum()
		truth += g.Row(i).Sum()
	}
	if obs == 0 {
		t.Fatal("no trajectory observations at 10% penetration")
	}
	ratio := obs / truth
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("fleet scaling ratio = %v, want ≈1", ratio)
	}
	if _, err := TrajectoriesFromTOD(g, 0, 0.1, rng); err == nil {
		t.Fatal("numPairs=0 did not error")
	}
	if _, err := TrajectoriesFromTOD(g, 2, 0, rng); err == nil {
		t.Fatal("fraction=0 did not error")
	}
}

func TestGenerateTrainingData(t *testing.T) {
	c := SyntheticGrid(6, 11)
	s := sim.New(c.Net, sim.Config{Intervals: 4, IntervalSec: 120, Seed: 0})
	samples, err := GenerateCtx(context.Background(), s, c, GenerateOptions{
		Count: 5,
		TOD:   TODConfig{Intervals: 4, Scale: 0.05},
		Seed:  12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("samples = %d", len(samples))
	}
	m := c.Net.NumLinks()
	for i, smp := range samples {
		if smp.G.Dim(0) != c.NumPairs() || smp.G.Dim(1) != 4 {
			t.Fatalf("sample %d TOD shape %v", i, smp.G.Shape())
		}
		if smp.Volume.Dim(0) != m || smp.Speed.Dim(0) != m {
			t.Fatalf("sample %d link dims wrong", i)
		}
		if smp.Speed.Min() <= 0 {
			t.Fatalf("sample %d has non-positive speed", i)
		}
	}
	// Determinism.
	again, err := GenerateCtx(context.Background(), s, c, GenerateOptions{Count: 5, TOD: TODConfig{Intervals: 4, Scale: 0.05}, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		for j := range samples[i].Speed.Data {
			if samples[i].Speed.Data[j] != again[i].Speed.Data[j] {
				t.Fatal("Generate not deterministic")
			}
		}
	}
}

func TestGroundTruthSimulation(t *testing.T) {
	c := SyntheticGrid(6, 13)
	s := sim.New(c.Net, sim.Config{Intervals: 4, IntervalSec: 120, Seed: 0})
	gt, err := GroundTruthCtx(context.Background(), s, c, 0.05, 14)
	if err != nil {
		t.Fatal(err)
	}
	if gt.G == nil || gt.Volume == nil || gt.Speed == nil {
		t.Fatal("incomplete ground truth")
	}
}

func TestCaseStudy1Shape(t *testing.T) {
	cs, err := CaseStudy1(0.2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Intervals != 24 || cs.G.Dim(1) != 24 {
		t.Fatalf("case 1 intervals = %d", cs.Intervals)
	}
	ab, ok1 := cs.Focus["A->B"]
	ba, ok2 := cs.Focus["B->A"]
	if !ok1 || !ok2 {
		t.Fatal("case 1 focus pairs missing")
	}
	// A->B peaks near 10:00 and is low at 3:00.
	rowAB := cs.G.Row(ab)
	if rowAB.At(10) <= rowAB.At(3) {
		t.Fatalf("A->B 10am (%v) not above 3am (%v)", rowAB.At(10), rowAB.At(3))
	}
	if rowAB.At(18) <= rowAB.At(3) {
		t.Fatal("A->B 6pm peak missing")
	}
	// B->A peaks late evening.
	rowBA := cs.G.Row(ba)
	if rowBA.At(21) <= rowBA.At(10) {
		t.Fatalf("B->A 9pm (%v) not above 10am (%v)", rowBA.At(21), rowBA.At(10))
	}
	if cs.HourOf(0) != 0 || cs.HourOf(25) != 1 {
		t.Fatal("HourOf wrong")
	}
}

func TestCaseStudy2Shape(t *testing.T) {
	cs, err := CaseStudy2(0.2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Intervals != 12 {
		t.Fatalf("case 2 intervals = %d", cs.Intervals)
	}
	i1 := cs.Focus["O1->Stadium"]
	i2 := cs.Focus["O2->Stadium"]
	i3 := cs.Focus["O3->Stadium"]
	// Peak at 9am = interval 3 (start 6am).
	peakIdx := 3
	if cs.HourOf(peakIdx) != 9 {
		t.Fatalf("interval 3 is hour %d, want 9", cs.HourOf(peakIdx))
	}
	for name, idx := range cs.Focus {
		row := cs.G.Row(idx)
		if row.At(peakIdx) <= row.At(11) {
			t.Fatalf("%s: 9am (%v) not above 5pm (%v)", name, row.At(peakIdx), row.At(11))
		}
	}
	// Highway gates O1/O3 outdraw local O2.
	if cs.G.Row(i1).Sum() <= cs.G.Row(i2).Sum() || cs.G.Row(i3).Sum() <= cs.G.Row(i2).Sum() {
		t.Fatal("gate origins do not dominate local origin")
	}
	_ = i1
	_ = i3
}

func TestGenerateScaleJitter(t *testing.T) {
	c := SyntheticGrid(4, 31)
	s := sim.New(c.Net, sim.Config{Intervals: 3, IntervalSec: 120, Seed: 0})
	fixed, err := GenerateCtx(context.Background(), s, c, GenerateOptions{
		Count: 10, TOD: TODConfig{Intervals: 3, Scale: 0.5}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	jittered, err := GenerateCtx(context.Background(), s, c, GenerateOptions{
		Count: 10, TOD: TODConfig{Intervals: 3, Scale: 0.5},
		ScaleJitter: [2]float64{0.2, 2.0}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Jitter must actually change per-sample demand magnitudes.
	changed := 0
	for i := range fixed {
		if math.Abs(fixed[i].G.Sum()-jittered[i].G.Sum()) > 1e-9 {
			changed++
		}
	}
	if changed < 7 {
		t.Fatalf("scale jitter changed only %d of 10 samples", changed)
	}
	// Same-pattern sample pairs (i, i+5) isolate the scale factor from the
	// pattern mix: jittered pairs must span a wider ratio than fixed pairs
	// (whose ratio only reflects pattern noise).
	maxPairRatio := func(samples []Sample) float64 {
		worst := 1.0
		for i := 0; i < 5; i++ {
			a, b := samples[i].G.Sum(), samples[i+5].G.Sum()
			r := a / b
			if r < 1 {
				r = 1 / r
			}
			if r > worst {
				worst = r
			}
		}
		return worst
	}
	if maxPairRatio(jittered) <= maxPairRatio(fixed) {
		t.Fatalf("jittered same-pattern ratio %v not wider than fixed %v",
			maxPairRatio(jittered), maxPairRatio(fixed))
	}
}
