package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// lineNet builds a simple 3-node, 2-link one-way corridor A->B->C.
func lineNet() *roadnet.Network {
	net := roadnet.New()
	a := net.AddNode(0, 0)
	b := net.AddNode(500, 0)
	c := net.AddNode(1000, 0)
	net.AddLink(a, b, 500, 2, 12.5, 0)
	net.AddLink(b, c, 500, 2, 12.5, 0)
	return net
}

func gridNet() *roadnet.Network {
	return roadnet.Grid(roadnet.GridConfig{Rows: 3, Cols: 3})
}

func constDemand(n, t int, rate float64, ods []ODNodes) Demand {
	g := tensor.Full(rate, n, t)
	return Demand{ODs: ods, G: g}
}

func TestDemandValidate(t *testing.T) {
	net := lineNet()
	good := constDemand(1, 4, 2, []ODNodes{{Origin: 0, Dest: 2}})
	if err := good.Validate(net, 4); err != nil {
		t.Fatal(err)
	}
	bad := []Demand{
		{ODs: []ODNodes{{0, 2}}, G: tensor.New(2, 4)},      // row mismatch
		{ODs: []ODNodes{{0, 2}}, G: tensor.New(1, 3)},      // col mismatch
		{ODs: []ODNodes{{0, 0}}, G: tensor.New(1, 4)},      // origin==dest
		{ODs: []ODNodes{{0, 99}}, G: tensor.New(1, 4)},     // out of range
		{ODs: []ODNodes{{0, 2}}, G: tensor.Full(-1, 1, 4)}, // negative
	}
	for i, d := range bad {
		if err := d.Validate(net, 4); err == nil {
			t.Fatalf("bad demand %d validated", i)
		}
	}
}

func TestMesoConservation(t *testing.T) {
	net := lineNet()
	s := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 1})
	d := constDemand(1, 4, 3, []ODNodes{{Origin: 0, Dest: 2}})
	res, err := s.RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned == 0 {
		t.Fatal("no vehicles spawned")
	}
	if res.Completed > res.Spawned {
		t.Fatalf("completed %d > spawned %d", res.Completed, res.Spawned)
	}
	// Light demand on an uncongested corridor: everyone should finish.
	if res.Completed < res.Spawned*9/10 {
		t.Fatalf("only %d of %d completed on empty corridor", res.Completed, res.Spawned)
	}
	// Expected spawn count = sum of G (integer rates → exact).
	if res.Spawned != int(d.G.Sum()) {
		t.Fatalf("spawned %d, want %v", res.Spawned, d.G.Sum())
	}
}

func TestMesoEntriesCountThroughFlow(t *testing.T) {
	net := lineNet()
	s := New(net, Config{Intervals: 2, IntervalSec: 600, Seed: 2})
	d := constDemand(1, 2, 5, []ODNodes{{Origin: 0, Dest: 2}})
	res, err := s.RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	// All 10 vehicles enter link 0; nearly all reach link 1 in-horizon.
	ent0 := res.Entries.At(0, 0) + res.Entries.At(0, 1)
	ent1 := res.Entries.At(1, 0) + res.Entries.At(1, 1)
	if ent0 != 10 {
		t.Fatalf("link 0 entries = %v, want 10", ent0)
	}
	// Vehicles spawning in the final seconds may not reach link 1 in-horizon.
	if ent1 < 7 || ent1 > 10 {
		t.Fatalf("link 1 entries = %v, want ~10", ent1)
	}
}

func TestMesoOccupancySemantics(t *testing.T) {
	// One vehicle crossing a 500 m link at 12.5 m/s occupies it for 40 s of a
	// 600 s interval: mean occupancy ≈ 40/600 ≈ 0.067 vehicle.
	net := lineNet()
	s := New(net, Config{Intervals: 1, IntervalSec: 600, Seed: 3})
	res, err := s.RunCtx(context.Background(), constDemand(1, 1, 1, []ODNodes{{Origin: 0, Dest: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	occ := res.Volume.At(0, 0)
	if occ < 0.03 || occ > 0.15 {
		t.Fatalf("single-vehicle occupancy = %v, want ≈0.067", occ)
	}
	// Occupancy must rise with demand and is bounded by link storage.
	heavy, err := New(net, Config{Intervals: 1, IntervalSec: 600, Seed: 3}).
		RunCtx(context.Background(), constDemand(1, 1, 800, []ODNodes{{Origin: 0, Dest: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Volume.At(0, 0) <= occ {
		t.Fatal("occupancy not increasing with demand")
	}
	maxVeh := 500.0 * 2 * 0.14 // length × lanes × jam density
	if heavy.Volume.At(0, 0) > maxVeh+1 {
		t.Fatalf("occupancy %v exceeds storage %v", heavy.Volume.At(0, 0), maxVeh)
	}
}

func TestVolumeSpeedMonotoneAcrossDemand(t *testing.T) {
	// The motivation for occupancy-as-volume: sweeping demand from light to
	// jammed, occupancy must increase monotonically while speed decreases —
	// the invertible branch structure the OVS chain relies on.
	net := lineNet()
	prevOcc, prevSpeed := -1.0, 1e9
	for _, rate := range []float64{5, 50, 200, 800} {
		s := New(net, Config{Intervals: 2, IntervalSec: 600, Seed: 4})
		res, err := s.RunCtx(context.Background(), constDemand(1, 2, rate, []ODNodes{{Origin: 0, Dest: 2}}))
		if err != nil {
			t.Fatal(err)
		}
		occ := res.Volume.Row(0).Mean()
		speed := res.Speed.Row(0).Mean()
		if occ < prevOcc {
			t.Fatalf("occupancy not monotone at rate %v: %v < %v", rate, occ, prevOcc)
		}
		if speed > prevSpeed+1e-9 {
			t.Fatalf("speed not monotone at rate %v: %v > %v", rate, speed, prevSpeed)
		}
		prevOcc, prevSpeed = occ, speed
	}
}

func TestMesoSpeedBounds(t *testing.T) {
	net := gridNet()
	regions := roadnet.PerNodeRegions(net, nil)
	rng := rand.New(rand.NewSource(3))
	pairs := roadnet.SelectODPairs(regions, 20, rng)
	ods := make([]ODNodes, len(pairs))
	for i, p := range pairs {
		ods[i] = ODNodes{Origin: regions[p.Origin].Anchor, Dest: regions[p.Dest].Anchor}
	}
	cfg := Config{Intervals: 6, IntervalSec: 300, Seed: 4}
	s := New(net, cfg)
	res, err := s.RunCtx(context.Background(), constDemand(len(ods), 6, 8, ods))
	if err != nil {
		t.Fatal(err)
	}
	full := cfg.withDefaults()
	for j := 0; j < net.NumLinks(); j++ {
		limit := net.Links[j].SpeedLimit
		for tt := 0; tt < 6; tt++ {
			v := res.Speed.At(j, tt)
			if v > limit+1e-9 {
				t.Fatalf("speed %v exceeds limit %v on link %d", v, limit, j)
			}
			if v < full.MinSpeed-1e-9 {
				t.Fatalf("speed %v below floor on link %d", v, j)
			}
		}
	}
}

func TestMesoDeterminism(t *testing.T) {
	net := gridNet()
	ods := []ODNodes{{Origin: 0, Dest: 8}, {Origin: 2, Dest: 6}, {Origin: 4, Dest: 0}}
	run := func() *Result {
		s := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 42})
		res, err := s.RunCtx(context.Background(), constDemand(3, 4, 6.5, ods))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !tensor.AllClose(a.Volume, b.Volume, 0) || !tensor.AllClose(a.Speed, b.Speed, 0) {
		t.Fatal("simulation not deterministic for fixed seed")
	}
	if a.Spawned != b.Spawned || a.Completed != b.Completed {
		t.Fatal("counters not deterministic")
	}
	// Different seed must change departure times (and almost surely outputs).
	s2 := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 43})
	c, err := s2.RunCtx(context.Background(), constDemand(3, 4, 6.5, ods))
	if err != nil {
		t.Fatal(err)
	}
	if tensor.AllClose(a.Volume, c.Volume, 0) {
		t.Fatal("different seeds produced identical volumes (suspicious)")
	}
}

func TestMesoCongestionSlowsTraffic(t *testing.T) {
	// Same corridor, light vs heavy demand: heavy demand must reduce the
	// observed speed on the first link — the core non-linearity the paper's
	// volume-speed module learns.
	net := lineNet()
	run := func(rate float64) *Result {
		s := New(net, Config{Intervals: 4, IntervalSec: 600, Seed: 5})
		res, err := s.RunCtx(context.Background(), constDemand(1, 4, rate, []ODNodes{{Origin: 0, Dest: 2}}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Heavy: 1500 trips per 600 s interval = 2.5 veh/s arrival against a
	// 1 veh/s discharge capacity — the queue must spill into low speeds.
	light := run(2)
	heavy := run(1500)
	lightSpeed := light.Speed.Row(0).Mean()
	heavySpeed := heavy.Speed.Row(0).Mean()
	if heavySpeed >= lightSpeed {
		t.Fatalf("congestion did not slow traffic: light=%v heavy=%v", lightSpeed, heavySpeed)
	}
	if heavySpeed > 0.7*lightSpeed {
		t.Fatalf("heavy congestion barely slowed traffic: light=%v heavy=%v", lightSpeed, heavySpeed)
	}
}

func TestMesoSpillbackDelaysUpstream(t *testing.T) {
	// Cross traffic on a shared middle link must delay the other flow
	// (the "competing traffic delays each other" phenomenon).
	net := gridNet()
	// Flow A: 0->8 via shortest; Flow B: 2->6. Both cross the center.
	odA := []ODNodes{{Origin: 0, Dest: 8}}
	both := []ODNodes{{Origin: 0, Dest: 8}, {Origin: 2, Dest: 6}}
	runMean := func(ods []ODNodes, rates []float64) float64 {
		g := tensor.New(len(ods), 6)
		for i, r := range rates {
			for tt := 0; tt < 6; tt++ {
				g.Set(r, i, tt)
			}
		}
		s := New(net, Config{Intervals: 6, IntervalSec: 600, Seed: 6})
		res, err := s.RunCtx(context.Background(), Demand{ODs: ods, G: g})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanTravelSec()
	}
	alone := runMean(odA, []float64{30})
	crowded := runMean(both, []float64{30, 60})
	if crowded <= alone {
		t.Fatalf("cross traffic did not delay flow A: alone=%v crowded=%v", alone, crowded)
	}
}

func TestRoadWorkSlowsLink(t *testing.T) {
	net := lineNet()
	base := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 7})
	work := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 7, RoadWork: map[int]float64{0: 0.3}})
	d := constDemand(1, 3, 5, []ODNodes{{Origin: 0, Dest: 2}})
	rb, err := base.RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := work.RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Speed.Row(0).Mean() >= rb.Speed.Row(0).Mean()*0.5 {
		t.Fatalf("road work (0.3x) had too little effect: base=%v work=%v",
			rb.Speed.Row(0).Mean(), rw.Speed.Row(0).Mean())
	}
	// Unaffected link keeps its free speed character when empty-ish.
	if rw.Speed.Row(1).Mean() < rb.Speed.Row(1).Mean()*0.5 {
		t.Fatal("road work leaked onto unaffected link")
	}
}

func TestDynamicRoutingAvoidsCongestion(t *testing.T) {
	// Two equal-length routes 0->8 in the grid. Static routing sends all
	// OD traffic down one shortest path; dynamic routing spreads when the
	// first choice congests, raising volume on more links.
	net := gridNet()
	d := constDemand(1, 6, 80, []ODNodes{{Origin: 0, Dest: 8}})
	static := New(net, Config{Intervals: 6, IntervalSec: 600, Seed: 8})
	dynamic := New(net, Config{Intervals: 6, IntervalSec: 600, Seed: 8, Routing: DynamicRouting})
	rs, err := static.RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dynamic.RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	usedLinks := func(res *Result) int {
		n := 0
		for j := 0; j < net.NumLinks(); j++ {
			if res.Volume.Row(j).Sum() > 0 {
				n++
			}
		}
		return n
	}
	if usedLinks(rd) <= usedLinks(rs) {
		t.Fatalf("dynamic routing used %d links, static %d; expected more spreading",
			usedLinks(rd), usedLinks(rs))
	}
}

func TestMicroBasicRun(t *testing.T) {
	net := lineNet()
	s := New(net, Config{Intervals: 3, IntervalSec: 300, Seed: 9, Engine: Micro})
	res, err := s.RunCtx(context.Background(), constDemand(1, 3, 3, []ODNodes{{Origin: 0, Dest: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 9 {
		t.Fatalf("spawned = %d, want 9", res.Spawned)
	}
	if res.Completed < 8 {
		t.Fatalf("completed = %d of 9 on an empty corridor", res.Completed)
	}
	// Free-flow corridor: observed speeds should be near the limit.
	if res.Speed.Row(0).Mean() < 0.5*net.Links[0].SpeedLimit {
		t.Fatalf("micro free-flow speed too low: %v", res.Speed.Row(0).Mean())
	}
}

func TestMicroCongestionSlowsTraffic(t *testing.T) {
	net := lineNet()
	run := func(rate float64) float64 {
		s := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 10, Engine: Micro})
		res, err := s.RunCtx(context.Background(), constDemand(1, 3, rate, []ODNodes{{Origin: 0, Dest: 2}}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Speed.Row(0).Mean()
	}
	light, heavy := run(2), run(120)
	if heavy >= light {
		t.Fatalf("micro congestion did not slow traffic: light=%v heavy=%v", light, heavy)
	}
}

func TestMicroDeterminism(t *testing.T) {
	net := lineNet()
	run := func() *Result {
		s := New(net, Config{Intervals: 2, IntervalSec: 300, Seed: 11, Engine: Micro})
		res, err := s.RunCtx(context.Background(), constDemand(1, 2, 4, []ODNodes{{Origin: 0, Dest: 2}}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !tensor.AllClose(a.Speed, b.Speed, 0) || !tensor.AllClose(a.Volume, b.Volume, 0) {
		t.Fatal("micro engine not deterministic")
	}
}

func TestEnginesQualitativelyAgree(t *testing.T) {
	// Meso and micro should agree on the qualitative congestion ordering of
	// scenarios even though absolute speeds differ.
	net := lineNet()
	meanSpeed := func(engine Engine, rate float64) float64 {
		s := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 12, Engine: engine})
		res, err := s.RunCtx(context.Background(), constDemand(1, 3, rate, []ODNodes{{Origin: 0, Dest: 2}}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Speed.Row(0).Mean()
	}
	for _, engine := range []Engine{Meso, Micro} {
		if meanSpeed(engine, 150) >= meanSpeed(engine, 3) {
			t.Fatalf("engine %d: heavy not slower than light", engine)
		}
	}
}

func TestFractionalDemandExpectation(t *testing.T) {
	// G = 0.5 per interval: across many seeds the spawn count should
	// approximate half the cells.
	net := lineNet()
	total := 0
	const runs = 60
	for seed := 0; seed < runs; seed++ {
		s := New(net, Config{Intervals: 4, IntervalSec: 60, Seed: int64(seed)})
		res, err := s.RunCtx(context.Background(), constDemand(1, 4, 0.5, []ODNodes{{Origin: 0, Dest: 2}}))
		if err != nil {
			t.Fatal(err)
		}
		total += res.Spawned
	}
	mean := float64(total) / runs // expectation 2.0
	if mean < 1.5 || mean > 2.5 {
		t.Fatalf("stochastic rounding mean = %v, want ≈2.0", mean)
	}
}

func TestQuickVolumeNonNegativeAndBounded(t *testing.T) {
	net := lineNet()
	f := func(seed int64, rate uint8) bool {
		r := float64(rate%20) + 1
		s := New(net, Config{Intervals: 2, IntervalSec: 120, Seed: seed})
		res, err := s.RunCtx(context.Background(), constDemand(1, 2, r, []ODNodes{{Origin: 0, Dest: 2}}))
		if err != nil {
			return false
		}
		// Occupancy is non-negative and bounded by link storage; entries are
		// bounded by the spawned count.
		for _, v := range res.Volume.Data {
			if v < 0 || v > 500*2*0.14+1 {
				return false
			}
		}
		for _, v := range res.Entries.Data {
			if v < 0 || v > float64(res.Spawned) {
				return false
			}
		}
		return res.Completed <= res.Spawned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownEngine(t *testing.T) {
	net := lineNet()
	s := New(net, Config{Intervals: 1, IntervalSec: 60})
	s.Cfg.Engine = Engine(99)
	if _, err := s.RunCtx(context.Background(), constDemand(1, 1, 1, []ODNodes{{Origin: 0, Dest: 2}})); err == nil {
		t.Fatal("unknown engine did not error")
	}
}

func TestMeanTravelSec(t *testing.T) {
	r := &Result{}
	if r.MeanTravelSec() != 0 {
		t.Fatal("MeanTravelSec on empty result should be 0")
	}
	r.Completed = 4
	r.TotalTravelSec = 100
	if r.MeanTravelSec() != 25 {
		t.Fatalf("MeanTravelSec = %v, want 25", r.MeanTravelSec())
	}
}
