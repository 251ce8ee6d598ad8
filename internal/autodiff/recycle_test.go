package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"ovs/internal/tensor"
)

// buildLossPass records a representative mix of ops (matmul, activations,
// structural ops, a fork/join fan-out) on g and runs Backward, returning the
// scalar loss. Parameter gradients accumulate into p1/p2.
func buildLossPass(g *Graph, p1, p2 *Parameter, x *tensor.Tensor) float64 {
	in := g.Const(x)
	h := Tanh(MatMul(in, g.Param(p1)))
	rows := ForkJoin(g, 2, x.Dim(0), func(sub *Graph, i int) *Node {
		r := Row(sub.Ref(h), i)
		n := r.Value.Dim(0)
		return Sigmoid(SliceVec(Reshape(StackRows([]*Node{r, r}), 2*n), 0, n))
	})
	s := Reshape(StackRows(rows), x.Dim(0)*p1.Value.Dim(1))
	v := MatMul(Reshape(s, 1, s.Value.Dim(0)), g.Param(p2))
	loss := Mean(Mul(v, v))
	g.Backward(loss)
	return loss.Value.Data[0]
}

func testParams(seed int64) (*Parameter, *Parameter, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	p1 := NewParameter("p1", tensor.Randn(rng, 0.5, 3, 4))
	p2 := NewParameter("p2", tensor.Randn(rng, 0.5, 5*4, 2))
	x := tensor.Randn(rng, 1, 5, 3)
	return p1, p2, x
}

// TestGraphResetReuseGradientEquality checks the recycling contract: a graph
// reused via Reset must produce bitwise-identical losses and parameter
// gradients to a freshly constructed graph, pass after pass.
func TestGraphResetReuseGradientEquality(t *testing.T) {
	p1, p2, x := testParams(7)

	// Reference: a fresh graph per pass.
	fresh := NewGraph()
	refLoss := buildLossPass(fresh, p1, p2, x)
	refG1 := p1.Grad.Clone()
	refG2 := p2.Grad.Clone()
	fresh.Release()

	// Recycled: one graph, Reset between passes.
	g := NewGraph()
	defer g.Release()
	for pass := 0; pass < 3; pass++ {
		g.Reset()
		p1.ZeroGrad()
		p2.ZeroGrad()
		loss := buildLossPass(g, p1, p2, x)
		if loss != refLoss {
			t.Fatalf("pass %d: recycled loss %v != fresh loss %v", pass, loss, refLoss)
		}
		if !tensor.AllClose(p1.Grad, refG1, 0) || !tensor.AllClose(p2.Grad, refG2, 0) {
			t.Fatalf("pass %d: recycled gradients differ from fresh graph", pass)
		}
	}
}

// TestPooledVsFreshGradients checks that toggling the tensor arena cannot
// change a single bit of the forward values or gradients.
func TestPooledVsFreshGradients(t *testing.T) {
	defer tensor.SetPooling(true)

	run := func(pooled bool) (float64, *tensor.Tensor, *tensor.Tensor) {
		tensor.SetPooling(pooled)
		p1, p2, x := testParams(11)
		g := NewGraph()
		defer g.Release()
		loss := buildLossPass(g, p1, p2, x)
		return loss, p1.Grad.Clone(), p2.Grad.Clone()
	}

	lossP, g1P, g2P := run(true)
	lossF, g1F, g2F := run(false)
	if lossP != lossF {
		t.Fatalf("pooled loss %v != fresh loss %v", lossP, lossF)
	}
	if !tensor.AllClose(g1P, g1F, 0) || !tensor.AllClose(g2P, g2F, 0) {
		t.Fatal("pooled gradients differ from fresh gradients")
	}
}

// TestResetReclaimsOwnedTensors checks that Reset rewinds the tape's regions
// (its own and every parked fork child's): after the first pass's tensors are
// dirtied, a second identical pass takes zero new chunks, sees only
// zero-filled tensors — its losses and gradients match the first pass
// bitwise, which accumulation into a dirty buffer would break — and Release
// leaves the graph reusable.
func TestResetReclaimsOwnedTensors(t *testing.T) {
	tensor.SetPooling(true)

	p1, p2, x := testParams(13)
	g := NewGraph()
	loss1 := buildLossPass(g, p1, p2, x)
	g1, g2 := p1.Grad.Clone(), p2.Grad.Clone()
	var shapes [][]int
	for _, n := range g.nodes {
		for _, v := range []*tensor.Tensor{n.Value, n.Grad} {
			if v == nil || v == x || v == p1.Value || v == p2.Value || v == p1.Grad || v == p2.Grad {
				continue
			}
			shapes = append(shapes, v.Shape())
			v.Fill(math.NaN())
		}
	}
	g.Reset()
	if g.NumNodes() != 0 {
		t.Fatalf("Reset left %d nodes on the tape", g.NumNodes())
	}

	before := tensor.Default.Stats()
	p1.ZeroGrad()
	p2.ZeroGrad()
	loss2 := buildLossPass(g, p1, p2, x)
	g.Reset()
	for _, sh := range shapes {
		for i, v := range g.Alloc(sh...).Data {
			if v != 0 {
				t.Fatalf("carve of shape %v after Reset not zeroed at %d: %v", sh, i, v)
			}
		}
	}
	g.Reset()
	after := tensor.Default.Stats()
	if d := after.Misses - before.Misses; d != 0 {
		t.Fatalf("second identical pass took %d new chunks, want 0", d)
	}
	if after.Hits == before.Hits {
		t.Fatal("second pass carved nothing from the retained regions")
	}
	if loss2 != loss1 || !tensor.AllClose(p1.Grad, g1, 0) || !tensor.AllClose(p2.Grad, g2, 0) {
		t.Fatal("second pass over dirtied regions changed the loss or gradients")
	}

	// The graph keeps working after Release (it just starts cold).
	g.Release()
	p1.ZeroGrad()
	p2.ZeroGrad()
	buildLossPass(g, p1, p2, x)
	g.Release()
}

// TestForkPoolingReusesChildren checks that join parks child tapes for the
// next Fork instead of leaking them.
func TestForkPoolingReusesChildren(t *testing.T) {
	g := NewGraph()
	defer g.Release()
	sub := g.Fork()
	sub.Const(tensor.New(1))
	g.join(1, []*Graph{sub})
	sub2 := g.Fork()
	if sub2 != sub {
		t.Fatal("Fork did not reuse the pooled child tape")
	}
	g.join(1, []*Graph{sub2})
}
