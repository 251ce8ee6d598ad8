package core

import (
	"context"
	"runtime"
	"testing"

	"ovs/internal/nn"
	"ovs/internal/tensor"
)

// TestTrainFullFusedEquivalence is the end-to-end guarantee of the fused
// LSTM cell: the complete train-then-fit pipeline recovers a bitwise-
// identical TOD with the fused cell and with the unfused graph-op oracle, at
// Workers ∈ {1, 2, GOMAXPROCS} and with arena pooling on and off.
func TestTrainFullFusedEquivalence(t *testing.T) {
	defer tensor.SetPooling(true)
	defer nn.SetFusedLSTM(true)

	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 3)

	run := func(fused, pooled bool, workers int) *tensor.Tensor {
		nn.SetFusedLSTM(fused)
		tensor.SetPooling(pooled)
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 31
		cfg.Workers = workers
		m := NewModel(topo, cfg)
		obs := fitObs(m, 12)
		rec, err := m.TrainFullCtx(context.Background(), samples, obs, 2, 2, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	ref := run(false, true, 1)
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, pooled := range []bool{true, false} {
			if got := run(true, pooled, w); !tensor.AllClose(got, ref, 0) {
				t.Fatalf("fused workers=%d pooled=%v: recovered TOD differs from the unfused oracle", w, pooled)
			}
		}
	}
}

// TestFitBestFusedEquivalence covers the restart machinery: FitBest must
// pick the same winner, with bitwise-identical recovery, on both LSTM paths.
func TestFitBestFusedEquivalence(t *testing.T) {
	defer nn.SetFusedLSTM(true)
	topo := testTopo(t, 4, 1)

	run := func(fused bool) *tensor.Tensor {
		nn.SetFusedLSTM(fused)
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 37
		cfg.Workers = 2
		m := NewModel(topo, cfg)
		obs := fitObs(m, 11)
		rec, _, err := m.FitBestCtx(context.Background(), obs, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	if !tensor.AllClose(run(true), run(false), 0) {
		t.Fatal("FitBest recovery differs between fused and unfused LSTM paths")
	}
}

// TestResumePackCacheEquivalence is the pack-cache invalidation regression
// test: with the LSTM wide enough that its weight products take the blocked
// path (so the cache serves their panels), a run that is killed and resumed
// — which restores parameters in place over cached pack sources — must
// reproduce the uninterrupted run exactly. A missed invalidation anywhere in
// the restore path would feed stale panels to the first post-resume epoch
// and diverge.
func TestResumePackCacheEquivalence(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := ckptTestConfig(2, 1)
	// At the topology's T = 4, the second LSTM's input product is
	// 4·64·(4·64) = 65 536 scalar ops, the blocked-GEMM threshold.
	cfg.LSTMHidden = 64
	samples := poolingSamples(topo, 3)

	before := tensor.PackCacheStatsSnapshot().Hits
	ref, _ := referenceTrainFull(t, topo, cfg, samples)
	dir := t.TempDir()
	got, _ := interruptedTrainFull(t, topo, cfg, samples, dir, false)
	requireSameResult(t, "pack cache resume", ref, got)

	if after := tensor.PackCacheStatsSnapshot().Hits; after == before {
		t.Fatal("pack cache never hit: the test no longer exercises cached packs")
	}
}
