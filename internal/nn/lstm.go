package nn

import (
	"math/rand"
	"sync/atomic"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// LSTM is a single-layer long short-term memory network processing a
// sequence laid out as a rank-2 tensor (T × in) and emitting the hidden
// state sequence (T × hidden). The paper's Volume-Speed mapping stacks two
// of these followed by fully connected layers (Table IV), with weights
// shared across all road links.
type LSTM struct {
	// Wx maps the input, Wh the previous hidden state, into the concatenated
	// gate pre-activations [i | f | o | g], each of width hidden.
	Wx, Wh, B *autodiff.Parameter
	hidden    int
}

// fusedLSTMOff disables the fused-cell path when set (the zero value keeps
// fusion on). The graph-op path stays available both as the oracle the
// equivalence tests compare against and as an escape hatch; the two paths
// produce bitwise-identical values and gradients (see autodiff.LSTMCell).
var fusedLSTMOff atomic.Bool

// SetFusedLSTM switches every LSTM in the process between the fused-cell
// forward (the default) and the unfused graph-op forward.
func SetFusedLSTM(on bool) { fusedLSTMOff.Store(!on) }

// NewLSTM constructs an LSTM with the given input and hidden sizes. The
// forget-gate bias is initialized to 1, the standard trick to preserve
// gradient flow early in training.
func NewLSTM(rng *rand.Rand, name string, in, hidden int) *LSTM {
	b := tensor.New(4 * hidden)
	for i := hidden; i < 2*hidden; i++ {
		b.Data[i] = 1 // forget gate bias
	}
	l := &LSTM{
		Wx:     autodiff.NewParameter(name+".Wx", tensor.Xavier(rng, in, 4*hidden, in, 4*hidden)),
		Wh:     autodiff.NewParameter(name+".Wh", tensor.Xavier(rng, hidden, 4*hidden, hidden, 4*hidden)),
		B:      autodiff.NewParameter(name+".b", b),
		hidden: hidden,
	}
	// Both weight matrices are B-side GEMM operands that change only at
	// optimizer steps: prime candidates for the persistent pack cache.
	l.Wx.Value.MarkPackable()
	l.Wh.Value.MarkPackable()
	return l
}

// Hidden returns the hidden-state width.
func (l *LSTM) Hidden() int { return l.hidden }

// Forward runs the LSTM over the full sequence. x is (T × in); the result is
// (T × hidden), one row per timestep.
//
// The input projection for all timesteps is hoisted into one sequence-level
// GEMM, X·Wx + b, before the recurrence; the timestep loop then either
// records one fused autodiff.LSTMCell node per step (default) or the
// explicit graph-op chain the cell replaces.
func (l *LSTM) Forward(x *autodiff.Node, _ bool) *autodiff.Node {
	g := x.Graph()
	steps := x.Value.Dim(0)
	wx, wh, b := g.Param(l.Wx), g.Param(l.Wh), g.Param(l.B)
	pre := autodiff.AddRowVector(autodiff.MatMul(x, wx), b) // (T × 4*hidden)
	outs := make([]*autodiff.Node, steps)

	if !fusedLSTMOff.Load() {
		var prev *autodiff.Node
		for step := 0; step < steps; step++ {
			prev = autodiff.LSTMCell(pre, step, prev, wh, l.hidden)
			outs[step] = prev
		}
		return autodiff.StackRows(outs)
	}

	h := g.Const(g.Alloc(1, l.hidden))
	c := g.Const(g.Alloc(l.hidden))
	for step := 0; step < steps; step++ {
		flat := autodiff.Add(
			autodiff.Row(pre, step),
			autodiff.Reshape(autodiff.MatMul(h, wh), 4*l.hidden),
		)
		in := autodiff.Sigmoid(autodiff.SliceVec(flat, 0, l.hidden))
		fg := autodiff.Sigmoid(autodiff.SliceVec(flat, l.hidden, 2*l.hidden))
		og := autodiff.Sigmoid(autodiff.SliceVec(flat, 2*l.hidden, 3*l.hidden))
		gg := autodiff.Tanh(autodiff.SliceVec(flat, 3*l.hidden, 4*l.hidden))

		c = autodiff.Add(autodiff.Mul(fg, c), autodiff.Mul(in, gg))
		hFlat := autodiff.Mul(og, autodiff.Tanh(c))

		outs[step] = hFlat
		h = autodiff.Reshape(hFlat, 1, l.hidden)
	}
	return autodiff.StackRows(outs)
}

// Params returns the LSTM's trainable parameters.
func (l *LSTM) Params() []*autodiff.Parameter {
	return []*autodiff.Parameter{l.Wx, l.Wh, l.B}
}
