package autodiff

import (
	"ovs/internal/parallel"
)

// This file implements deterministic parallel graph construction.
//
// A Graph is a single-writer tape, so independent sub-computations (one per
// road link, one per route) cannot record onto it concurrently. Fork/Join
// solve this: Fork hands each worker a private child tape, Ref re-homes any
// parent-tape node the worker needs onto its child, and Join splices the
// children back into the parent in fork order. Because the splice order
// depends only on the fork indices — never on goroutine scheduling — the
// joined tape, and therefore Backward's reverse replay and every gradient
// accumulation, is identical at any worker count.
//
// Child tapes pool through the parent: Join hands a child's node slabs to the
// parent (they are reclaimed at the parent's Reset) and parks the child on
// g.children, where the next Fork picks it up. The child keeps its region,
// which still backs the joined nodes' tensors; the parent's Reset rewinds it.
// A steady-state epoch loop therefore forks without allocating.

// Fork creates a child tape of g, reusing a pooled child when one is
// available. Nodes recorded on the child may reference parent-tape nodes via
// Ref; the child is folded back with Join. Forking a child tape is not
// supported (one level keeps the ownership rule auditable).
func (g *Graph) Fork() *Graph {
	if g.parent != nil {
		panic("autodiff: Fork of an already-forked graph")
	}
	if k := len(g.children); k > 0 {
		c := g.children[k-1]
		g.children[k-1] = nil
		g.children = g.children[:k-1]
		c.parent = g
		return c
	}
	return &Graph{parent: g}
}

// Ref re-homes a parent-tape node onto child tape g via an identity node, so
// that subsequent operations attach to the tape the calling worker owns.
// Gradients flow through unchanged: the identity's backward rule accumulates
// into the parent node, and since Backward runs serially after Join, that
// accumulation never races. Ref of a node already on g is the identity.
func (g *Graph) Ref(n *Node) *Node {
	if n.graph == g {
		return n
	}
	if g.parent == nil || n.graph != g.parent {
		panic("autodiff: Ref target is not on the parent graph")
	}
	out := g.newNode(n.Value, n.requires)
	out.backFn, out.a = backPassthrough, n
	return out
}

// Join splices child tapes created by Fork back into g, in argument order.
// Every child node is re-homed onto g, so results built on a child behave
// exactly as if they had been recorded on g directly. The child's node slabs
// transfer to g (reclaimed at g's Reset); the child, with its still-live
// region, is parked for reuse by the next Fork. The children must not be used
// after Join.
func (g *Graph) Join(subs ...*Graph) {
	for _, sub := range subs {
		if sub.parent != g {
			panic("autodiff: Join of a graph not forked from this parent")
		}
		for _, n := range sub.nodes {
			n.graph = g
		}
		g.nodes = append(g.nodes, sub.nodes...)
		for i := range sub.nodes {
			sub.nodes[i] = nil
		}
		sub.nodes = sub.nodes[:0]

		// The child's slabs hold live nodes now referenced by g.nodes; they
		// return to the global pool only after g.Reset zeroes them.
		if sub.cur != nil {
			g.full = append(g.full, sub.cur)
			sub.cur = nil
		}
		g.full = append(g.full, sub.full...)
		for i := range sub.full {
			sub.full[i] = nil
		}
		sub.full = sub.full[:0]
		sub.curUsed = 0

		sub.parent = nil
		g.children = append(g.children, sub)
	}
}

// ForkJoin builds n independent sub-graphs concurrently and splices them onto
// g in index order. build receives a private child tape and the item index;
// it must route every parent-tape node it uses through sub.Ref (or construct
// from sub.Const/sub.Param) so that all recording stays on the child.
//
// The forked structure is created for every worker count, including 1, so the
// resulting tape — and all floats derived from it — depends only on n, never
// on scheduling.
func ForkJoin(g *Graph, workers, n int, build func(sub *Graph, i int) *Node) []*Node {
	return forkJoin(g, workers, n, build)
}

// ForkJoinK is ForkJoin for builders that return several nodes per item
// (e.g. a per-route logit and gain pair).
func ForkJoinK(g *Graph, workers, n int, build func(sub *Graph, i int) []*Node) [][]*Node {
	return forkJoin(g, workers, n, build)
}

func forkJoin[T any](g *Graph, workers, n int, build func(sub *Graph, i int) T) []T {
	subs := make([]*Graph, n)
	for i := range subs {
		subs[i] = g.Fork()
	}
	outs := make([]T, n)
	parallel.ForWorkers(workers, n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outs[i] = build(subs[i], i)
		}
	})
	g.Join(subs...)
	return outs
}
