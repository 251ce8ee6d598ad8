package core

import (
	"context"
	"errors"
	"testing"
)

// TestTrainCtxReturnsCancelCause covers the non-checkpointed entry points:
// with no hook to convert cancellation into ErrInterrupted, a cancelled stage
// returns the partial history with the context's cancellation cause, and the
// completed prefix is bitwise-identical to an uncancelled run's.
func TestTrainCtxReturnsCancelCause(t *testing.T) {
	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 2)
	cfg := ckptTestConfig(1, 1)

	full, err := NewModel(topo, cfg).TrainV2SCtx(context.Background(), samples, 3)
	if err != nil {
		t.Fatal(err)
	}

	sentinel := errors.New("deadline budget spent")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)

	m := NewModel(topo, cfg)
	hist, err := m.TrainV2SCtx(ctx, samples, 3)
	if !errors.Is(err, sentinel) {
		t.Fatalf("TrainV2SCtx err = %v, want the cancel cause", err)
	}
	// Cancellation is observed at epoch boundaries only: exactly one epoch
	// ran, and it matches the uncancelled run's first epoch bit for bit.
	if len(hist) != 1 {
		t.Fatalf("cancelled TrainV2SCtx ran %d epochs, want 1", len(hist))
	}
	if hist[0] != full[0] {
		t.Fatalf("cancelled prefix %v diverges from uncancelled epoch %v", hist[0], full[0])
	}

	obs := fitObs(m, 12)
	if _, _, err := m.FitBestCtx(ctx, obs, 3, 1, nil); !errors.Is(err, sentinel) {
		t.Fatalf("FitBestCtx err = %v, want the cancel cause", err)
	}
}
