package autodiff

import (
	"sync"

	"ovs/internal/tensor"
)

// This file implements graph recycling: node slabs and the tape's tensor
// region, both reclaimed by Graph.Reset, so a training loop that reuses one
// graph per epoch reaches a steady state with near-zero allocations.
//
// Ownership rule: a tensor is owned by the graph if and only if it was carved
// from the graph's region through Graph.Alloc/AllocLike (every op output,
// gradient buffer, and dropout mask). Reset rewinds the region in one step,
// so nothing is freed per tensor. Tensors entering via Param/Const live
// outside the region and are never reclaimed. No op hands a tensor view to
// the graph: Reshape copies precisely so that every owned tensor exclusively
// owns its backing array.
//
// Region lifetime: each Fork child carves from its own region, since workers
// record concurrently. Nodes recorded on a child keep pointing into that
// region after Join, so the region stays live while the child is parked on
// g.children; the parent's Reset rewinds (and Release releases) its own
// region and every parked child's.
//
// Node slab rule: nodes live in pooled chunks of nodeChunkSize. Every node
// handed out is recorded on exactly one tape, so sweeping g.nodes at Reset
// zeroes every used slab entry; chunks in the pool are therefore always fully
// zeroed, and a recycled chunk behaves exactly like a fresh one.

// nodeChunkSize is the number of Node structs per pooled slab. Child tapes
// created by Fork draw whole chunks too, so the value balances per-fork slab
// waste against slab churn on large tapes.
const nodeChunkSize = 256

type nodeChunk [nodeChunkSize]Node

var nodeChunks = sync.Pool{New: func() any { return new(nodeChunk) }}

// putNodeChunk returns a chunk whose entries are all zero (see the slab rule
// above) to the pool.
func putNodeChunk(c []Node) { nodeChunks.Put((*nodeChunk)(c)) }

// node hands out the next slab entry of this tape. The entry is zero-valued.
func (g *Graph) node() *Node {
	if g.curUsed == len(g.cur) {
		if g.cur != nil {
			g.full = append(g.full, g.cur)
		}
		g.cur = nodeChunks.Get().(*nodeChunk)[:]
		g.curUsed = 0
	}
	n := &g.cur[g.curUsed]
	g.curUsed++
	return n
}

// newNode records a node with the given value on the tape and returns it.
// Callers set the static backward rule and its operand fields on the returned
// node. Any shape validation must happen before newNode so that a panicking
// op never leaves a dirty, unrecorded slab entry behind.
func (g *Graph) newNode(val *tensor.Tensor, requires bool) *Node {
	n := g.node()
	n.Value = val
	n.requires = requires
	return g.add(n)
}

// Alloc returns a zero-filled graph-owned tensor carved from the tape's
// region. The graph reclaims it on Reset/Release, so the caller must not
// retain it (or any view of it) beyond the graph's lifetime — Clone anything
// that escapes.
func (g *Graph) Alloc(shape ...int) *tensor.Tensor {
	return g.region.Alloc(shape...)
}

// AllocLike is Alloc with t's shape.
func (g *Graph) AllocLike(t *tensor.Tensor) *tensor.Tensor {
	return g.region.AllocLike(t)
}

// Reset clears the tape for reuse: the regions of the graph and its parked
// children rewind, every node slab entry is zeroed, and full slabs return to
// the global pool. Node pointers and owned tensors from before the Reset are
// invalid afterwards. The graph keeps its node list capacity, its current
// slab, its regions' chunks, and its pooled children, so a steady-state
// epoch loop performs no tape allocation at all.
func (g *Graph) Reset() {
	if g.parent != nil {
		panic("autodiff: Reset of a forked child graph")
	}
	if !g.busy.CompareAndSwap(false, true) {
		panic("autodiff: Reset during concurrent graph construction")
	}
	for i, n := range g.nodes {
		*n = Node{}
		g.nodes[i] = nil
	}
	g.nodes = g.nodes[:0]
	g.region.Reset()
	for _, c := range g.children {
		c.region.Reset()
	}
	for i, c := range g.full {
		putNodeChunk(c)
		g.full[i] = nil
	}
	g.full = g.full[:0]
	g.curUsed = 0
	g.busy.Store(false)
}

// Release resets the graph and returns every remaining pooled resource (the
// current slab, the regions' chunks, and pooled child tapes). Call it when a
// graph goes out of scope for good; the graph remains usable, it just starts
// cold again.
func (g *Graph) Release() {
	g.Reset()
	if g.cur != nil {
		putNodeChunk(g.cur)
		g.cur = nil
	}
	g.region.Release()
	for i, c := range g.children {
		if c.cur != nil {
			putNodeChunk(c.cur)
			c.cur = nil
		}
		c.region.Release()
		g.children[i] = nil
	}
	g.children = g.children[:0]
}
