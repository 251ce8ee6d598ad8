package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"ovs/internal/ckpt"
)

// TestDivergenceIsTypedError drives a checkpointed pipeline into divergence
// and checks that it stops with ErrDiverged naming the stage and epoch, and
// that the checkpoint directory holds no poisoned state: the newest
// checkpoint is the last finite one, or there is none when the very first
// epoch diverged.
func TestDivergenceIsTypedError(t *testing.T) {
	tests := []struct {
		name string
		// nanSpeed puts a NaN into the second training sample's speed.
		nanSpeed bool
		// fitLR, when set, is the learning rate of the fit stage only.
		fitLR     float64
		wantErr   string
		wantStage string // stage of the newest checkpoint; "" for none
		wantEpoch int
	}{
		{
			name:     "NaN in a sample's speed",
			nanSpeed: true,
			wantErr:  "core: training diverged: stage v2s, epoch 1: loss NaN, gradient norm NaN",
		},
		{
			name:      "LR large enough to overflow",
			fitLR:     math.MaxFloat64,
			wantErr:   "core: training diverged: stage fit, epoch 2: parameter todgen.l1.W is not finite",
			wantStage: StageFit,
			wantEpoch: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			topo := testTopo(t, 4, 1)
			samples := poolingSamples(topo, 2)
			if tt.nanSpeed {
				samples[1].Speed.Data[0] = math.NaN()
			}
			m := NewModel(topo, ckptTestConfig(1, 1))
			obs := fitObs(m, 12)
			dir := t.TempDir()
			c, err := NewCheckpointer(m, CkptOptions{Dir: dir, Every: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			_, _, err = c.TrainMappings(ctx, samples, 3, 3)
			if err == nil {
				if tt.fitLR > 0 {
					m.Cfg.LR = tt.fitLR
				}
				_, _, err = c.FitBest(ctx, obs, 3, 1, nil)
			}
			if !errors.Is(err, ErrDiverged) {
				t.Fatalf("err = %v, want ErrDiverged", err)
			}
			if err.Error() != tt.wantErr {
				t.Fatalf("err = %q, want %q", err, tt.wantErr)
			}

			snap, _, err := ckpt.Latest(dir)
			if tt.wantStage == "" {
				if !errors.Is(err, ckpt.ErrNoCheckpoint) {
					t.Fatalf("Latest err = %v, want ErrNoCheckpoint", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if snap.Stage != tt.wantStage || snap.Epoch != tt.wantEpoch {
				t.Fatalf("newest checkpoint at %s epoch %d, want %s epoch %d", snap.Stage, snap.Epoch, tt.wantStage, tt.wantEpoch)
			}
			for _, p := range snap.Params {
				for _, v := range p.Data {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("newest checkpoint holds non-finite parameter %s", p.Name)
					}
				}
			}
		})
	}
}
