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
// grow concurrently from the shared chunk pool. After Join every tensor must
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
