package sim

import (
	"context"
	"math"
	"testing"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// TestEntryQueueEventuallyDrains floods a short link far beyond storage and
// verifies that queued vehicles still enter once space frees, and that the
// simulator neither loses nor duplicates vehicles.
func TestEntryQueueEventuallyDrains(t *testing.T) {
	net := roadnet.New()
	a := net.AddNode(0, 0)
	b := net.AddNode(200, 0)
	c := net.AddNode(1200, 0)
	net.AddLink(a, b, 200, 1, 10, 0) // storage ≈ 200×0.14 = 28 vehicles
	net.AddLink(b, c, 1000, 2, 15, 0)
	s := New(net, Config{Intervals: 6, IntervalSec: 600, Seed: 1})
	// 900 vehicles demanded in the first interval: 1.5 veh/s arrival against
	// a 0.5 veh/s discharge — the 28-vehicle link must fill and queue.
	g := tensor.New(1, 6)
	g.Set(900, 0, 0)
	res, err := s.RunCtx(context.Background(), Demand{ODs: []ODNodes{{Origin: a, Dest: c}}, G: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 900 {
		t.Fatalf("spawned = %d, want 900", res.Spawned)
	}
	// In full jam the link serves at speed×density ≈ 0.11 veh/s (capacity
	// drop), so only part of the demand gets in before the horizon ends —
	// but what enters must be drip-fed, conserved, and mostly completed.
	entered := res.Entries.Row(0).Sum()
	if entered > 900 {
		t.Fatalf("first-link entries = %v > spawned 900 (duplication)", entered)
	}
	if entered < 300 {
		t.Fatalf("first-link entries = %v, jam throughput too low", entered)
	}
	// Entries must spill into later intervals (the entry-queue effect).
	if res.Entries.At(0, 0) >= entered {
		t.Fatal("all entries happened in the first interval despite the queue")
	}
	// Completions lag entries by at most the vehicles still on the road.
	if float64(res.Completed) > entered {
		t.Fatalf("completed %d > entered %v", res.Completed, entered)
	}
	if float64(res.Completed) < entered-60 {
		t.Fatalf("completed %d lags entries %v by more than on-road storage", res.Completed, entered)
	}
}

// TestRoadWorkReducesCapacityToo verifies the road-work factor scales
// capacity, not just speed: a work zone must pass fewer vehicles.
func TestRoadWorkReducesCapacityToo(t *testing.T) {
	net := lineNet()
	d := constDemand(1, 3, 900, []ODNodes{{Origin: 0, Dest: 2}})
	base, err := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 2}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	work, err := New(net, Config{Intervals: 3, IntervalSec: 600, Seed: 2, RoadWork: map[int]float64{0: 0.4}}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if work.Completed >= base.Completed {
		t.Fatalf("work zone completed %d >= base %d", work.Completed, base.Completed)
	}
}

// TestMicroJunctionBlocking verifies the micro engine holds leaders at the
// stop line when the receiving link is packed, rather than teleporting.
func TestMicroJunctionBlocking(t *testing.T) {
	net := roadnet.New()
	a := net.AddNode(0, 0)
	b := net.AddNode(400, 0)
	c := net.AddNode(500, 0) // very short receiving link
	d := net.AddNode(1500, 0)
	net.AddLink(a, b, 400, 1, 14, 0)
	net.AddLink(b, c, 100, 1, 14, 0) // bottleneck: fits ~14 vehicles
	net.AddLink(c, d, 1000, 1, 3, 0) // slow exit keeps the bottleneck full
	g := tensor.New(1, 4)
	g.Set(120, 0, 0)
	s := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 3, Engine: Micro})
	res, err := s.RunCtx(context.Background(), Demand{ODs: []ODNodes{{Origin: a, Dest: d}}, G: g})
	if err != nil {
		t.Fatal(err)
	}
	// Upstream speed must collapse versus free flow while the bottleneck
	// holds vehicles back.
	if res.Speed.At(0, 1) > 0.6*net.Links[0].SpeedLimit {
		t.Fatalf("upstream speed %v did not collapse behind the bottleneck", res.Speed.At(0, 1))
	}
	if res.Completed > res.Spawned {
		t.Fatal("vehicle duplication at junction")
	}
}

// TestOccupancyBoundedByStorageProperty checks, across engines and demands,
// that occupancy never exceeds the link's physical storage.
func TestOccupancyBoundedByStorageProperty(t *testing.T) {
	net := lineNet()
	for _, engine := range []Engine{Meso, Micro} {
		for _, rate := range []float64{10, 300, 1200} {
			s := New(net, Config{Intervals: 2, IntervalSec: 300, Seed: 4, Engine: engine})
			res, err := s.RunCtx(context.Background(), constDemand(1, 2, rate, []ODNodes{{Origin: 0, Dest: 2}}))
			if err != nil {
				t.Fatal(err)
			}
			for j := range net.Links {
				storage := net.Links[j].Length * float64(net.Links[j].Lanes) * 0.14
				for tt := 0; tt < 2; tt++ {
					// Micro's single-lane abstraction can slightly exceed the
					// density-based storage figure; allow 2x headroom.
					if res.Volume.At(j, tt) > 2*storage+1 {
						t.Fatalf("engine %d rate %v: occupancy %v far exceeds storage %v",
							engine, rate, res.Volume.At(j, tt), storage)
					}
				}
			}
		}
	}
}

// TestSpeedObservationMatchesGreenshields cross-checks the meso engine's
// reported speed against the fundamental diagram it integrates: for a steady
// state, v ≈ vf(1 - occ/storage).
func TestSpeedObservationMatchesGreenshields(t *testing.T) {
	net := lineNet()
	s := New(net, Config{Intervals: 4, IntervalSec: 600, Seed: 5})
	res, err := s.RunCtx(context.Background(), constDemand(1, 4, 400, []ODNodes{{Origin: 0, Dest: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	l := net.Links[0]
	storage := l.Length * float64(l.Lanes) * 0.14
	// Use a mid-horizon interval where the state is quasi-steady.
	occ := res.Volume.At(0, 2)
	speed := res.Speed.At(0, 2)
	predicted := l.SpeedLimit * (1 - occ/storage)
	if predicted < 0.8 {
		predicted = 0.8
	}
	if math.Abs(speed-predicted) > 0.25*l.SpeedLimit {
		t.Fatalf("observed speed %v far from Greenshields prediction %v (occ %v)", speed, predicted, occ)
	}
}

// TestDeterminismAcrossEntriesAndOccupancy extends the determinism check to
// the Entries tensor.
func TestDeterminismAcrossEntriesAndOccupancy(t *testing.T) {
	net := gridNet()
	ods := []ODNodes{{Origin: 0, Dest: 8}, {Origin: 6, Dest: 2}}
	run := func() *Result {
		s := New(net, Config{Intervals: 3, IntervalSec: 300, Seed: 77})
		res, err := s.RunCtx(context.Background(), constDemand(2, 3, 7.3, ods))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !tensor.AllClose(a.Entries, b.Entries, 0) {
		t.Fatal("Entries not deterministic")
	}
	if !tensor.AllClose(a.Volume, b.Volume, 0) {
		t.Fatal("Volume not deterministic")
	}
}

// TestStochasticRoutingSpreadsTraffic verifies the logit route choice uses
// multiple routes for an OD with near-tied alternatives.
func TestStochasticRoutingSpreadsTraffic(t *testing.T) {
	net := gridNet()
	d := constDemand(1, 4, 40, []ODNodes{{Origin: 0, Dest: 8}})
	static, err := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 8}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	stoch, err := New(net, Config{
		Intervals: 4, IntervalSec: 300, Seed: 8,
		Routing: StochasticRouting, RouteChoiceK: 3, LogitTheta: 2,
	}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	used := func(res *Result) int {
		n := 0
		for j := 0; j < net.NumLinks(); j++ {
			if res.Entries.Row(j).Sum() > 0 {
				n++
			}
		}
		return n
	}
	if used(stoch) <= used(static) {
		t.Fatalf("stochastic routing used %d links, static %d", used(stoch), used(static))
	}
	// Determinism still holds for a fixed seed.
	stoch2, err := New(net, Config{
		Intervals: 4, IntervalSec: 300, Seed: 8,
		Routing: StochasticRouting, RouteChoiceK: 3, LogitTheta: 2,
	}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(stoch.Entries, stoch2.Entries, 0) {
		t.Fatal("stochastic routing not deterministic per seed")
	}
}

// TestLogitThetaGreediness: with very high theta the logit choice collapses
// to the shortest route, matching static routing.
func TestLogitThetaGreediness(t *testing.T) {
	net := gridNet()
	d := constDemand(1, 3, 20, []ODNodes{{Origin: 0, Dest: 8}})
	static, err := New(net, Config{Intervals: 3, IntervalSec: 300, Seed: 9}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := New(net, Config{
		Intervals: 3, IntervalSec: 300, Seed: 9,
		Routing: StochasticRouting, RouteChoiceK: 3, LogitTheta: 500,
	}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	// In a symmetric grid the k-shortest alternatives tie exactly, so even a
	// greedy logit can pick among ties; compare total entries instead of
	// per-link equality.
	if static.Spawned != greedy.Spawned {
		t.Fatalf("spawn counts differ: %d vs %d", static.Spawned, greedy.Spawned)
	}
}
