package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// fitObs builds a deterministic synthetic speed observation for a model by
// pushing a fixed TOD through its (untrained) forward chain.
func fitObs(m *Model, level float64) *tensor.Tensor {
	tod := tensor.Full(level, m.Topo.N, m.Topo.T)
	_, speed := m.Forward(tod)
	return speed
}

// TestFitBestRestoresWinner is the regression test for the stale-best-state
// bug: after FitBest with several restarts, the model's generator must hold
// the winning restart's state, so GenerateTOD (and Save) agree exactly with
// the returned recovery.
func TestFitBestRestoresWinner(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	cfg.Seed = 11
	m := NewModel(topo, cfg)
	obs := fitObs(m, 12)

	rec, hist, err := m.FitBestCtx(context.Background(), obs, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history length %d, want 2", len(hist))
	}
	if !tensor.AllClose(rec, m.GenerateTOD(), 0) {
		t.Fatal("m.GenerateTOD() does not match the TOD returned by FitBest")
	}
}

// cannedGen is a TODGenModule whose output is a canned tensor; Reseed
// switches to the next canned state.
type cannedGen struct {
	cur    *tensor.Tensor
	states []*tensor.Tensor
	next   int
	dummy  *autodiff.Parameter
}

func (c *cannedGen) Generate(g *autodiff.Graph) *autodiff.Node { return g.Const(c.cur) }
func (c *cannedGen) Params() []*autodiff.Parameter             { return []*autodiff.Parameter{c.dummy} }
func (c *cannedGen) StateTensors() []*tensor.Tensor            { return []*tensor.Tensor{c.cur} }
func (c *cannedGen) Reseed(*rand.Rand) {
	copy(c.cur.Data, c.states[c.next%len(c.states)].Data)
	c.next++
}
func (c *cannedGen) CloneTODGen() TODGenModule {
	clone := *c
	clone.cur = c.cur.Clone()
	return &clone
}

// TestFitBestSelectsPureSpeedLoss pins the winner criterion: the restart
// with the lower re-evaluated speed loss must win even when the smoothness
// regularizer makes its *total* training loss far higher.
func TestFitBestSelectsPureSpeedLoss(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	// Heavy smoothing: the oscillating (but speed-exact) state has a much
	// larger total loss than the flat (but speed-wrong) one.
	cfg.SmoothWeight = 1000
	cfg.Seed = 13
	m := NewModel(topo, cfg)

	// State A oscillates between 0 and 40 trips; it defines the observation,
	// so its speed loss is exactly 0 while its smooth penalty is maximal.
	a := tensor.New(topo.N, topo.T)
	for i := range a.Data {
		if i%2 == 0 {
			a.Data[i] = 40
		}
	}
	_, obs := m.Forward(a)
	// State B is perfectly smooth but does not match the observation.
	b := tensor.Full(20, topo.N, topo.T)

	m.TODGen = &cannedGen{
		cur:    a.Clone(),
		states: []*tensor.Tensor{b},
		dummy:  autodiff.NewParameter("canned.dummy", tensor.New(1)),
	}
	rec, _, err := m.FitBestCtx(context.Background(), obs, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(rec, a, 0) {
		t.Fatal("FitBest did not select the restart with the lowest pure speed loss")
	}
	if !tensor.AllClose(m.GenerateTOD(), a, 0) {
		t.Fatal("winning state was not restored into the generator")
	}
}

// TestModuleWorkerEquivalence checks that MapVolume, MapSpeed and the full
// test-time fit produce bitwise-identical results for Workers ∈ {1, 2,
// GOMAXPROCS}.
func TestModuleWorkerEquivalence(t *testing.T) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	topo := testTopo(t, 4, 2)
	tod := tensor.Full(15, topo.N, topo.T)

	build := func(workers int) *Model {
		cfg := DefaultConfig()
		cfg.MaxTrips = 60
		cfg.RoutesPerOD = 2
		cfg.Seed = 17
		cfg.Workers = workers
		return NewModel(topo, cfg)
	}

	ref := build(1)
	refVol := ref.PredictVolume(tod)
	refSpeed := ref.PredictSpeed(refVol)
	obs := fitObs(ref, 10)
	refRec, refHist, err := ref.FitBestCtx(context.Background(), obs, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range counts[1:] {
		m := build(w)
		if !tensor.AllClose(m.PredictVolume(tod), refVol, 0) {
			t.Fatalf("workers=%d: MapVolume differs from workers=1", w)
		}
		if !tensor.AllClose(m.PredictSpeed(refVol), refSpeed, 0) {
			t.Fatalf("workers=%d: MapSpeed differs from workers=1", w)
		}
		rec, hist, err := m.FitBestCtx(context.Background(), obs, 3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(rec, refRec, 0) {
			t.Fatalf("workers=%d: fitted TOD differs from workers=1", w)
		}
		for e := range refHist {
			if hist[e] != refHist[e] {
				t.Fatalf("workers=%d: loss history diverges at epoch %d: %v vs %v", w, e, hist[e], refHist[e])
			}
		}
	}
}

// TestFitBestWorkerEquivalence checks that concurrent restarts recover the
// same TOD as serial ones: the restart seeds are drawn serially up front, so
// the worker count must not leak into the result.
func TestFitBestWorkerEquivalence(t *testing.T) {
	topo := testTopo(t, 4, 1)
	run := func(workers int) *tensor.Tensor {
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 23
		cfg.Workers = workers
		m := NewModel(topo, cfg)
		obs := fitObs(m, 12)
		rec, _, err := m.FitBestCtx(context.Background(), obs, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if !tensor.AllClose(run(w), ref, 0) {
			t.Fatalf("workers=%d: FitBest recovery differs from workers=1", w)
		}
	}
}
