package autodiff

import (
	"math/rand"
	"runtime"
	"testing"

	"ovs/internal/tensor"
)

// rowNode builds one item's sub-computation on tape g: sigmoid(w · x). It is
// the shared forward used by the serial and forked variants below.
func rowNode(g *Graph, w *Node, x *tensor.Tensor) *Node {
	return Sigmoid(MatMul(w, g.Const(x)))
}

func TestForkJoinMatchesSerialBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, dim = 6, 5
	wT := tensor.Xavier(rng, dim, dim, dim, dim)
	xs := make([]*tensor.Tensor, rows)
	for i := range xs {
		xs[i] = tensor.RandUniform(rng, -1, 1, dim, dim)
	}

	run := func(workers int) (*tensor.Tensor, *tensor.Tensor) {
		p := NewParameter("w", wT.Clone())
		g := NewGraph()
		w := g.Param(p)
		var outs []*Node
		if workers == 0 { // plain serial build, no forking at all
			for i := 0; i < rows; i++ {
				outs = append(outs, rowNode(g, w, xs[i]))
			}
		} else {
			outs = ForkJoin(g, workers, rows, func(sub *Graph, i int) *Node {
				return rowNode(sub, sub.Ref(w), xs[i])
			})
		}
		loss := Mean(SumNodes(outs...))
		g.Backward(loss)
		return loss.Value.Clone(), p.Grad.Clone()
	}

	refVal, refGrad := run(0)
	for _, workers := range []int{1, 2, 4} {
		val, grad := run(workers)
		if !tensor.AllClose(val, refVal, 0) {
			t.Fatalf("workers=%d: forked forward differs from serial", workers)
		}
		if !tensor.AllClose(grad, refGrad, 0) {
			t.Fatalf("workers=%d: forked gradient differs from serial", workers)
		}
	}
}

func TestForkJoinWorkerCountInvariance(t *testing.T) {
	// The joined tape must be bitwise identical across worker counts even
	// when per-item builds mix Ref'd parent nodes with child-tape math.
	rng := rand.New(rand.NewSource(11))
	const items = 9
	base := tensor.RandUniform(rng, -1, 1, 4, 4)
	xs := make([]*tensor.Tensor, items)
	for i := range xs {
		xs[i] = tensor.RandUniform(rng, -1, 1, 4, 4)
	}
	run := func(workers int) (*tensor.Tensor, *tensor.Tensor) {
		p := NewParameter("w", base.Clone())
		g := NewGraph()
		w := g.Param(p)
		outs := ForkJoin(g, workers, items, func(sub *Graph, i int) *Node {
			// Mixed-operand op: w is still on the parent tape here; the
			// result must attach to the child.
			return Tanh(Mul(w, sub.Const(xs[i])))
		})
		loss := Mean(SumNodes(outs...))
		g.Backward(loss)
		return loss.Value.Clone(), p.Grad.Clone()
	}
	v1, g1 := run(1)
	for _, workers := range []int{2, 3, 8} {
		v, gr := run(workers)
		if !tensor.AllClose(v, v1, 0) || !tensor.AllClose(gr, g1, 0) {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}
}

func TestFrozenParameterGetsNoGradient(t *testing.T) {
	p := NewParameter("w", tensor.Ones(3))
	q := NewParameter("v", tensor.Ones(3))
	q.SetFrozen(true)
	g := NewGraph()
	loss := Mean(Mul(g.Param(p), g.Param(q)))
	g.Backward(loss)
	if p.Grad.Norm2() == 0 {
		t.Fatal("unfrozen parameter received no gradient")
	}
	if q.Grad.Norm2() != 0 {
		t.Fatalf("frozen parameter received gradient %v", q.Grad.Data)
	}
	q.SetFrozen(false)
	g2 := NewGraph()
	g2.Backward(Mean(Mul(g2.Param(p), g2.Param(q))))
	if q.Grad.Norm2() == 0 {
		t.Fatal("unfreezing did not restore gradient flow")
	}
}

func TestSiblingForkMixPanics(t *testing.T) {
	g := NewGraph()
	a := g.Fork()
	b := g.Fork()
	na := a.Const(tensor.Ones(2))
	nb := b.Const(tensor.Ones(2))
	defer func() {
		if recover() == nil {
			t.Fatal("mixing sibling fork tapes should panic")
		}
	}()
	Add(na, nb)
}

// TestForkJoinRegionStress records many fork children at once, each carving
// tagged tensors of mixed sizes from its private region while the regions
// grow concurrently from the shared chunk pool. After the join every tensor must
// still hold its child's tag (no two children ever share memory), and after
// Reset the next pass must see zero-filled carves again. Run under -race at
// every worker count, this is the locking proof of the chunk pool.
func TestForkJoinRegionStress(t *testing.T) {
	const children, passes = 24, 4
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		g := NewGraph()
		live := make([][]*tensor.Tensor, children)
		for pass := 0; pass < passes; pass++ {
			g.Reset()
			ForkJoin(g, workers, children, func(sub *Graph, i int) *Node {
				rng := rand.New(rand.NewSource(int64(pass*children + i)))
				tag := float64(i + 1)
				live[i] = live[i][:0]
				for k := 0; k < 30; k++ {
					x := sub.Alloc(1 + rng.Intn(3000))
					for j, v := range x.Data {
						if v != 0 {
							t.Errorf("workers=%d: carve returned dirty memory at %d: %v", workers, j, v)
							break
						}
						x.Data[j] = tag
					}
					live[i] = append(live[i], x)
				}
				return sub.Const(live[i][0])
			})
			for i, ts := range live {
				for _, x := range ts {
					for _, v := range x.Data {
						if v != float64(i+1) {
							t.Fatalf("workers=%d pass %d: child %d's tensor holds %v", workers, pass, i, v)
						}
					}
				}
			}
		}
		g.Release()
	}
}

// TestParallelBackwardMatchesSerial pins the parallel replay of fork groups
// bit for bit: every parameter and input gradient, at several worker counts,
// must equal both Workers = 1 and a build that records the same computation
// straight onto the parent tape. The graph exercises every kind of shared
// write the replay orders:
//
//   - child-recorded Param leaves, with an LSTMCell chain per child so that
//     OuterAccFMA accumulates into the shared Wh gradient;
//   - Ref passthroughs into parent nodes;
//   - a parent operand mixed into a child op directly;
//   - an empty span (a child that returns a parent node);
//   - a child output that gets no gradient;
//   - pooled children reused by the next, consecutive group, whose spans
//     Ref the first group's outputs.
//
// Two passes over one recycled graph check that the replay scratch resets.
func TestParallelBackwardMatchesSerial(t *testing.T) {
	const hidden, steps, in = 3, 4, 2
	const nA, nB = 7, 4
	const empty, dead = 3, 5
	rng := rand.New(rand.NewSource(5))
	init := map[string]*tensor.Tensor{
		"x":  tensor.RandUniform(rng, -1, 1, steps, in),
		"w":  tensor.RandUniform(rng, -1, 1, steps, in),
		"wx": tensor.RandUniform(rng, -0.5, 0.5, in, 4*hidden),
		"wh": tensor.RandUniform(rng, -0.5, 0.5, hidden, 4*hidden),
		"b":  tensor.RandUniform(rng, -0.5, 0.5, 4*hidden),
		"v":  tensor.RandUniform(rng, -1, 1, 1),
	}
	names := []string{"x", "w", "wx", "wh", "b", "v"}
	xs := make([]*tensor.Tensor, nA)
	for i := range xs {
		xs[i] = tensor.RandUniform(rng, -1, 1, steps, in)
	}

	// run returns the loss followed by every parameter gradient and the
	// gradients of the two parent input nodes; workers = 0 builds unforked.
	run := func(workers int) []*tensor.Tensor {
		ps := make(map[string]*Parameter, len(init))
		for _, name := range names {
			ps[name] = NewParameter(name, init[name].Clone())
		}
		g := NewGraph()
		defer g.Release()
		var got []*tensor.Tensor
		for pass := 0; pass < 2; pass++ {
			g.Reset()
			for _, p := range ps {
				p.ZeroGrad()
			}
			x := Tanh(g.Param(ps["x"])) // a parent input node
			w := g.Param(ps["w"])
			base := Scale(x, 2)
			fork := func(n int, build func(sub *Graph, i int) *Node) []*Node {
				if workers > 0 {
					return ForkJoin(g, workers, n, build)
				}
				outs := make([]*Node, n)
				for i := range outs {
					outs[i] = build(g, i)
				}
				return outs
			}
			outsA := fork(nA, func(sub *Graph, i int) *Node {
				if i == empty {
					return base
				}
				xin := Mul(sub.Ref(x), sub.Const(xs[i]))
				mixed := Mul(w, xin) // w stays on the parent tape
				pre := AddRowVector(MatMul(mixed, sub.Param(ps["wx"])), sub.Param(ps["b"]))
				wh := sub.Param(ps["wh"])
				hs := make([]*Node, steps)
				var h *Node
				for s := range hs {
					h = LSTMCell(pre, s, h, wh, hidden)
					hs[s] = h
				}
				return Sum(StackRows(hs))
			})
			outsB := fork(nB, func(sub *Graph, i int) *Node {
				return MulScalarNode(Sum(sub.Ref(outsA[i])), sub.Param(ps["v"]))
			})
			var terms []*Node
			for i, o := range outsA {
				if i != dead {
					terms = append(terms, Sum(o))
				}
			}
			loss := Add(SumNodes(terms...), SumNodes(outsB...))
			g.Backward(loss)
			got = []*tensor.Tensor{loss.Value.Clone()}
			for _, name := range names {
				got = append(got, ps[name].Grad.Clone())
			}
			got = append(got, x.Grad.Clone(), base.Grad.Clone())
		}
		return got
	}

	unforked, serial := run(0), run(1)
	labels := append(append([]string{"loss"}, names...), "x node", "base node")
	for _, workers := range []int{1, 2, 3, 8} {
		got := run(workers)
		for k, label := range labels {
			if i, ok := bitsEqual(got[k].Data, serial[k].Data); !ok {
				t.Errorf("workers=%d: %s differs from workers=1 at %d: %v vs %v", workers, label, i, got[k].Data[i], serial[k].Data[i])
			}
			if i, ok := bitsEqual(got[k].Data, unforked[k].Data); !ok {
				t.Errorf("workers=%d: %s differs from the unforked build at %d: %v vs %v", workers, label, i, got[k].Data[i], unforked[k].Data[i])
			}
		}
	}
}
