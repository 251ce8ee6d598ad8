package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"ovs/internal/ckpt"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// TestNewTopologyRejectsDegenerateInput pins the exact error text of the
// topologies the model cannot be built on. Without the check, zero OD pairs
// reached NewTODGenerator and panicked on a [0 T] tensor.
func TestNewTopologyRejectsDegenerateInput(t *testing.T) {
	net := roadnet.Grid(roadnet.GridConfig{Rows: 2, Cols: 3})
	tests := []struct {
		name    string
		pairs   [][2]int
		t       int
		wantErr string
	}{
		{"zero OD pairs", nil, 4, "core: invalid input: topology requires at least one OD pair"},
		{"empty OD list", [][2]int{}, 4, "core: invalid input: topology requires at least one OD pair"},
		{"zero intervals", [][2]int{{0, 5}}, 0, "core: invalid input: topology requires T > 0, got 0"},
		{"negative intervals", [][2]int{{0, 5}}, -2, "core: invalid input: topology requires T > 0, got -2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			topo, err := NewTopology(net, tt.pairs, tt.t, 1)
			if topo != nil || !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("NewTopology = %v, %v; want nil, ErrInvalidInput", topo, err)
			}
			if err.Error() != tt.wantErr {
				t.Fatalf("err = %q, want %q", err, tt.wantErr)
			}
		})
	}
}

// TestFitRejectsNonFiniteObservation checks that both fit entry points refuse
// a speed observation with a NaN or infinite cell before the first epoch:
// the error names the first bad cell, the generator is untouched and no
// checkpoint is written. Before the check, a NaN observation ran epoch 1 and
// surfaced as ErrDiverged.
func TestFitRejectsNonFiniteObservation(t *testing.T) {
	tests := []struct {
		name         string
		checkpointed bool
		restarts     int
		bad          func(obs *tensor.Tensor) // T = 4: cell k is link k/4, interval k%4
		wantErr      string
	}{
		{
			name: "NaN, FitBestCtx", restarts: 1,
			bad:     func(obs *tensor.Tensor) { obs.Data[9] = math.NaN() },
			wantErr: "core: invalid input: speed observation at link 2, interval 1 is NaN",
		},
		{
			name: "+Inf after a NaN, FitBestCtx with restarts", restarts: 3,
			bad: func(obs *tensor.Tensor) {
				obs.Data[6] = math.Inf(1)
				obs.Data[11] = math.NaN()
			},
			wantErr: "core: invalid input: speed observation at link 1, interval 2 is +Inf",
		},
		{
			name: "NaN, Checkpointer.FitBest", checkpointed: true, restarts: 1,
			bad:     func(obs *tensor.Tensor) { obs.Data[0] = math.NaN() },
			wantErr: "core: invalid input: speed observation at link 0, interval 0 is NaN",
		},
		{
			name: "-Inf, Checkpointer.FitBest with restarts", checkpointed: true, restarts: 2,
			bad:     func(obs *tensor.Tensor) { obs.Data[len(obs.Data)-1] = math.Inf(-1) },
			wantErr: "core: invalid input: speed observation at link 13, interval 3 is -Inf",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			topo := testTopo(t, 4, 1)
			m := NewModel(topo, ckptTestConfig(1, tt.restarts))
			obs := fitObs(m, 12)
			tt.bad(obs)
			entry := cloneTensors(m.TODGen.StateTensors())
			dir := t.TempDir()
			var (
				rec  *tensor.Tensor
				hist []float64
				err  error
			)
			if tt.checkpointed {
				c, cerr := NewCheckpointer(m, CkptOptions{Dir: dir, Every: 1})
				if cerr != nil {
					t.Fatal(cerr)
				}
				rec, hist, err = c.FitBest(context.Background(), obs, 3, tt.restarts, nil)
			} else {
				rec, hist, err = m.FitBestCtx(context.Background(), obs, 3, tt.restarts, nil)
			}
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("err = %v, want ErrInvalidInput", err)
			}
			if err.Error() != tt.wantErr {
				t.Fatalf("err = %q, want %q", err, tt.wantErr)
			}
			if rec != nil || hist != nil {
				t.Fatalf("fit returned a recovery (%v) or a loss history (%v)", rec != nil, hist)
			}
			for i, s := range m.TODGen.StateTensors() {
				if !tensor.AllClose(s, entry[i], 0) {
					t.Fatalf("generator state tensor %d changed: an epoch ran", i)
				}
			}
			if _, _, err := ckpt.Latest(dir); !errors.Is(err, ckpt.ErrNoCheckpoint) {
				t.Fatalf("Latest err = %v, want ErrNoCheckpoint", err)
			}
		})
	}
}
