package sim

import (
	"context"
	"strings"
	"testing"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// dynamicGridDemand builds a multi-OD demand on the 3×3 grid heavy enough
// that many vehicles of each OD spawn per interval — the regime the
// per-(OD, interval) route cache is designed for.
func dynamicGridDemand(net *roadnet.Network, intervals int, rate float64) Demand {
	ods := []ODNodes{
		{Origin: 0, Dest: 8},
		{Origin: 2, Dest: 6},
		{Origin: 6, Dest: 2},
		{Origin: 8, Dest: 0},
	}
	return Demand{ODs: ods, G: tensor.Full(rate, len(ods), intervals)}
}

// TestDynamicRouteCacheEquivalence verifies the cache is a pure memoization:
// with DynamicRouting evaluating routes against the interval-start speed
// snapshot, a cached run and a per-vehicle-recompute run must produce
// bitwise-identical observation tensors, while the cached run issues far
// fewer shortest-path computations.
func TestDynamicRouteCacheEquivalence(t *testing.T) {
	net := gridNet()
	const intervals = 4
	d := dynamicGridDemand(net, intervals, 15)
	base := Config{Intervals: intervals, IntervalSec: 300, Seed: 9, Routing: DynamicRouting}

	for _, engine := range []Engine{Meso, Micro} {
		cfgCached := base
		cfgCached.Engine = engine
		cached, err := New(net, cfgCached).RunCtx(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		cfgUncached := cfgCached
		cfgUncached.disableRouteCache = true
		uncached, err := New(net, cfgUncached).RunCtx(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2]*tensor.Tensor{
			"Volume":  {cached.Volume, uncached.Volume},
			"Entries": {cached.Entries, uncached.Entries},
			"Speed":   {cached.Speed, uncached.Speed},
		} {
			if !tensor.AllClose(pair[0], pair[1], 0) {
				t.Fatalf("engine=%v: cached and uncached runs differ in %s", engine, name)
			}
		}
		if cached.Spawned != uncached.Spawned || cached.Completed != uncached.Completed {
			t.Fatalf("engine=%v: cached/uncached spawn or completion counts differ", engine)
		}
		// The acceptance bar: ≥5× fewer Dijkstra invocations with the cache.
		if cached.DijkstraCalls*5 > uncached.DijkstraCalls {
			t.Fatalf("engine=%v: cache saved too little: %d cached vs %d uncached Dijkstra calls",
				engine, cached.DijkstraCalls, uncached.DijkstraCalls)
		}
		// The cached run is bounded by static precompute + one call per
		// (OD, interval).
		maxCalls := len(d.ODs) * (1 + intervals)
		if cached.DijkstraCalls > maxCalls {
			t.Fatalf("engine=%v: cached run made %d Dijkstra calls, want ≤ %d",
				engine, cached.DijkstraCalls, maxCalls)
		}
	}
}

// TestDynamicRoutingDiffersFromStatic guards against the cache degenerating
// into static routing: under congestion the interval-start speeds shift, so
// at least some dynamic route choices must diverge from free-flow routes.
func TestDynamicRoutingDiffersFromStatic(t *testing.T) {
	net := gridNet()
	const intervals = 4
	d := dynamicGridDemand(net, intervals, 40) // heavy: congestion builds
	static, err := New(net, Config{Intervals: intervals, IntervalSec: 300, Seed: 9}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := New(net, Config{Intervals: intervals, IntervalSec: 300, Seed: 9,
		Routing: DynamicRouting}).RunCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.AllClose(static.Entries, dynamic.Entries, 0) {
		t.Fatal("dynamic routing produced exactly the static entry pattern under congestion")
	}
}

// TestDynamicRouteErrorSurfaced pins the bugfix: a Dijkstra failure in
// dynamic mode must reach the caller (and stick, so every vehicle reports
// the same first error) instead of being silently masked by the static
// route. The failure is manufactured by pointing an OD at an unreachable
// node, which only the dynamic query sees.
func TestDynamicRouteErrorSurfaced(t *testing.T) {
	net := lineNet() // one-way corridor 0→1→2: node 0 is unreachable
	rc := &routeChooser{
		net:       net,
		cfg:       Config{Routing: DynamicRouting}.withDefaults(),
		ods:       []ODNodes{{Origin: 2, Dest: 0}},
		static:    []roadnet.Route{{0, 1}}, // pretend a static fallback exists
		snapSpeed: []float64{12.5, 12.5},
		cached:    make([]roadnet.Route, 1),
	}
	rc.weight = func(id int) float64 { return net.Links[id].Length / rc.snapSpeed[id] }

	route, err := rc.choose(0, rc.snapSpeed, nil)
	if err == nil {
		t.Fatal("choose returned no error for an unreachable destination")
	}
	if route != nil {
		t.Fatal("choose fell back to a route despite the routing error")
	}
	if !strings.Contains(err.Error(), "OD 0") {
		t.Fatalf("error %q does not identify the OD pair", err)
	}
	// The error is cached: later vehicles see the same failure, and no
	// further shortest-path work is attempted.
	callsAfterFirst := rc.calls
	again, err2 := rc.choose(0, rc.snapSpeed, nil)
	if err2 == nil || again != nil {
		t.Fatal("second choose did not resurface the cached error")
	}
	if err2.Error() != err.Error() {
		t.Fatalf("second error %q differs from first %q", err2, err)
	}
	if rc.calls != callsAfterFirst {
		t.Fatal("second choose re-ran Dijkstra after a cached error")
	}
}

// TestBeginIntervalSnapshotsSpeeds verifies the dynamic chooser routes by
// the interval-start snapshot, not by the live speeds passed to choose.
func TestBeginIntervalSnapshotsSpeeds(t *testing.T) {
	// Two parallel routes 0→2: direct slow link 2 vs fast detour 0,1.
	net := roadnet.New()
	a := net.AddNode(0, 0)
	b := net.AddNode(500, 100)
	c := net.AddNode(1000, 0)
	l0 := net.AddLink(a, b, 600, 1, 25, 0)
	net.AddLink(b, c, 600, 1, 25, 0)
	l2 := net.AddLink(a, c, 1000, 1, 25, 0)

	cfg := Config{Routing: DynamicRouting}.withDefaults()
	rc, err := newRouteChooser(net, cfg, []ODNodes{{Origin: a, Dest: c}})
	if err != nil {
		t.Fatal(err)
	}
	speeds := make([]float64, net.NumLinks())
	for i := range speeds {
		speeds[i] = 25
	}
	speeds[l0] = 1 // detour congested at snapshot time
	rc.beginInterval(speeds)

	// Live speeds now favor the detour again, but the snapshot must win. If
	// beginInterval retained (rather than copied) the caller's slice, this
	// mutation would leak into the weight function and flip the choice.
	speeds[l0] = 25
	speeds[l2] = 1
	route, err := rc.choose(0, speeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 1 || route[0] != l2 {
		t.Fatalf("route = %v, want the direct link %d per the snapshot", route, l2)
	}
}
