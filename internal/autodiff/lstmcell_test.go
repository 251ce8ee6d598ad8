package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ovs/internal/tensor"
)

// unfusedLSTMRef builds the reference graph-op LSTM over a (T × in) input
// node: hoisted input projection, then the explicit per-step op chain the
// fused cell replaces. It is the oracle every fused-path test compares
// against.
func unfusedLSTMRef(g *Graph, x, wx, wh, b *Node, hidden int) *Node {
	steps := x.Value.Dim(0)
	pre := AddRowVector(MatMul(x, wx), b)
	hMat := g.Const(g.Alloc(1, hidden))
	c := g.Const(g.Alloc(hidden))
	outs := make([]*Node, steps)
	for t := 0; t < steps; t++ {
		flat := Add(Row(pre, t), Reshape(MatMul(hMat, wh), 4*hidden))
		in := Sigmoid(SliceVec(flat, 0, hidden))
		fg := Sigmoid(SliceVec(flat, hidden, 2*hidden))
		og := Sigmoid(SliceVec(flat, 2*hidden, 3*hidden))
		gg := Tanh(SliceVec(flat, 3*hidden, 4*hidden))
		c = Add(Mul(fg, c), Mul(in, gg))
		hFlat := Mul(og, Tanh(c))
		hMat = Reshape(hFlat, 1, hidden)
		outs[t] = hFlat
	}
	return StackRows(outs)
}

// fusedLSTMRef builds the same recurrence from LSTMCell nodes.
func fusedLSTMRef(x, wx, wh, b *Node, hidden int) *Node {
	steps := x.Value.Dim(0)
	pre := AddRowVector(MatMul(x, wx), b)
	outs := make([]*Node, steps)
	var prev *Node
	for t := 0; t < steps; t++ {
		prev = LSTMCell(pre, t, prev, wh, hidden)
		outs[t] = prev
	}
	return StackRows(outs)
}

// bitsEqual compares bit patterns, treating any NaN as equal to any NaN:
// x86 NaN propagation returns the first NaN source operand, and operand order
// for commutative float ops is a compiler choice, so NaN payload/sign bits
// are the one quantity the two paths legitimately may not share. Everything
// else — signed zeros, infinities, every finite value — must match exactly.
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("%s[%d]: fused %v (%#x) vs unfused %v (%#x)",
			what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// runLSTMBitwiseCase runs both paths from identical parameters and input and
// asserts the stacked outputs, the loss-weighted backward, and every
// parameter gradient are bitwise-identical.
func runLSTMBitwiseCase(t *testing.T, x *tensor.Tensor, wxT, whT, bT *tensor.Tensor, hidden int) {
	t.Helper()
	build := func(fused bool) (*tensor.Tensor, []*tensor.Tensor) {
		wx := NewParameter("wx", wxT.Clone())
		wh := NewParameter("wh", whT.Clone())
		bias := NewParameter("b", bT.Clone())
		g := NewGraph()
		defer g.Release()
		var out *Node
		if fused {
			out = fusedLSTMRef(g.Const(x), g.Param(wx), g.Param(wh), g.Param(bias), hidden)
		} else {
			out = unfusedLSTMRef(g, g.Const(x), g.Param(wx), g.Param(wh), g.Param(bias), hidden)
		}
		// A non-uniform seed gradient so backward symmetry can't hide bugs:
		// scale each output element by a deterministic pattern before Sum.
		weights := g.Alloc(out.Value.Dim(0), out.Value.Dim(1))
		for i := range weights.Data {
			weights.Data[i] = float64(i%7) - 3
		}
		loss := Sum(Mul(out, g.Const(weights)))
		g.Backward(loss)
		val := out.Value.Clone()
		return val, []*tensor.Tensor{wx.Grad.Clone(), wh.Grad.Clone(), bias.Grad.Clone()}
	}

	fusedVal, fusedGrads := build(true)
	refVal, refGrads := build(false)
	requireBits(t, "output", fusedVal.Data, refVal.Data)
	for i, name := range []string{"wx.Grad", "wh.Grad", "b.Grad"} {
		requireBits(t, name, fusedGrads[i].Data, refGrads[i].Data)
	}
}

func TestLSTMCellBitwiseVsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ steps, in, hidden int }{
		{1, 3, 4},
		{5, 5, 8},
		{12, 7, 16},
		{24, 4, 32},
	} {
		x := tensor.Randn(rng, 1, tc.steps, tc.in)
		wx := tensor.Randn(rng, 0.4, tc.in, 4*tc.hidden)
		wh := tensor.Randn(rng, 0.4, tc.hidden, 4*tc.hidden)
		b := tensor.Randn(rng, 0.2, 4*tc.hidden)
		runLSTMBitwiseCase(t, x, wx, wh, b, tc.hidden)
	}
}

// TestLSTMCellBitwiseSpecialValues injects ±0, NaN, and infinities into the
// input and weights: the fused kernels must propagate non-finite values (and
// signed zeros) through the exact arithmetic the graph ops perform, not
// shortcut around them.
func TestLSTMCellBitwiseSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const steps, in, hidden = 6, 4, 8
	x := tensor.Randn(rng, 1, steps, in)
	wx := tensor.Randn(rng, 0.4, in, 4*hidden)
	wh := tensor.Randn(rng, 0.4, hidden, 4*hidden)
	b := tensor.Randn(rng, 0.2, 4*hidden)
	x.Data[0] = math.Inf(1)
	x.Data[1] = math.Inf(-1)
	x.Data[2] = math.NaN()
	x.Data[3] = math.Copysign(0, -1)
	x.Data[in] = 0
	wx.Data[5] = math.Inf(1)
	wx.Data[6] = math.NaN()
	wh.Data[3] = math.Copysign(0, -1)
	wh.Data[4] = math.Inf(-1)
	b.Data[1] = math.NaN()
	runLSTMBitwiseCase(t, x, wx, wh, b, hidden)
}

func TestLSTMCellGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const steps, in, hidden = 5, 3, 6
	x := tensor.Randn(rng, 1, steps, in)
	target := tensor.Randn(rng, 1, steps, hidden)
	wx := randParam(rng, "wx", in, 4*hidden)
	wh := randParam(rng, "wh", hidden, 4*hidden)
	b := randParam(rng, "b", 4*hidden)
	gradCheck(t, []*Parameter{wx, wh, b}, func(g *Graph) *Node {
		out := fusedLSTMRef(g.Const(x), g.Param(wx), g.Param(wh), g.Param(b), hidden)
		return MSE(out, target)
	})
}

// TestLSTMCellChildTape exercises the fused cell on forked child tapes under
// the parallel pool, the exact topology LSTMV2S uses per link.
func TestLSTMCellChildTape(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const steps, in, hidden, links = 7, 3, 5, 9
	wx := NewParameter("wx", tensor.Randn(rng, 0.4, in, 4*hidden))
	wh := NewParameter("wh", tensor.Randn(rng, 0.4, hidden, 4*hidden))
	b := NewParameter("b", tensor.Randn(rng, 0.2, 4*hidden))
	xs := make([]*tensor.Tensor, links)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, steps, in)
	}

	run := func(workers int) (*tensor.Tensor, *tensor.Tensor) {
		wx.ZeroGrad()
		wh.ZeroGrad()
		b.ZeroGrad()
		g := NewGraph()
		defer g.Release()
		outs := ForkJoin(g, workers, links, func(cg *Graph, i int) *Node {
			return fusedLSTMRef(cg.Const(xs[i]), cg.Param(wx), cg.Param(wh), cg.Param(b), hidden)
		})
		total := Sum(outs[0])
		for _, o := range outs[1:] {
			total = Add(total, Sum(o))
		}
		g.Backward(total)
		return wh.Grad.Clone(), wx.Grad.Clone()
	}

	whSerial, wxSerial := run(1)
	whPar, wxPar := run(4)
	requireBits(t, "wh.Grad workers=4", whPar.Data, whSerial.Data)
	requireBits(t, "wx.Grad workers=4", wxPar.Data, wxSerial.Data)
}

// TestLSTMCellMixedWidthsZeroState records LSTMs of hidden 32, 24 and 32
// again on one tape. They share the tape's cell scratch, whose t=0 zero state
// must stay exactly zero although the widths differ: every output and
// gradient must match the unfused oracle run alone on a fresh tape.
func TestLSTMCellMixedWidthsZeroState(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const steps, in = 4, 3
	type lstm struct {
		hidden     int
		x          *tensor.Tensor
		wx, wh, b  *Parameter
		out, grads []float64
	}
	var ls []*lstm
	for _, hidden := range []int{32, 24, 32} {
		ls = append(ls, &lstm{
			hidden: hidden,
			x:      tensor.Randn(rng, 1, steps, in),
			wx:     randParam(rng, "wx", in, 4*hidden),
			wh:     randParam(rng, "wh", hidden, 4*hidden),
			b:      randParam(rng, "b", 4*hidden),
		})
	}
	grads := func(l *lstm) []float64 {
		var out []float64
		for _, p := range []*Parameter{l.wx, l.wh, l.b} {
			out = append(out, p.Grad.Data...)
			p.ZeroGrad()
		}
		return out
	}

	g := NewGraph()
	defer g.Release()
	var total *Node
	for _, l := range ls {
		out := fusedLSTMRef(g.Const(l.x), g.Param(l.wx), g.Param(l.wh), g.Param(l.b), l.hidden)
		l.out = append([]float64(nil), out.Value.Data...)
		if total == nil {
			total = Sum(out)
		} else {
			total = Add(total, Sum(out))
		}
	}
	g.Backward(total)
	for _, l := range ls {
		l.grads = grads(l)
	}
	for i, v := range g.lstmZero {
		if v != 0 || math.Signbit(v) {
			t.Fatalf("tape zero state dirtied at %d: %v", i, v)
		}
	}

	for i, l := range ls {
		ref := NewGraph()
		out := unfusedLSTMRef(ref, ref.Const(l.x), ref.Param(l.wx), ref.Param(l.wh), ref.Param(l.b), l.hidden)
		ref.Backward(Sum(out))
		requireBits(t, fmt.Sprintf("lstm %d (hidden %d) output", i, l.hidden), l.out, out.Value.Data)
		requireBits(t, fmt.Sprintf("lstm %d (hidden %d) grads", i, l.hidden), l.grads, grads(l))
		ref.Release()
	}
}
