// Package arenaescape exercises the arenaescape analyzer: tensors carved from
// a tape's region (Graph.Alloc/AllocLike, Region.Alloc/AllocLike) are
// reclaimed when the region rewinds and must not outlive the frame through
// fields, globals, channels, or returns.
package arenaescape

import (
	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

type holder struct {
	buf  *tensor.Tensor
	data []float64
}

var global *tensor.Tensor

// fieldEscape parks a carve in a struct field that outlives Reset.
func fieldEscape(g *autodiff.Graph, h *holder) {
	t := g.Alloc(4)
	h.buf = t // want "region-owned memory stored into a struct field"
}

// dataEscape parks a carve's Data slice, which is the region's memory.
func dataEscape(g *autodiff.Graph, h *holder) {
	h.data = g.Alloc(4).Data // want "region-owned memory stored into a struct field"
}

// globalEscape parks a carve in a package-level variable.
func globalEscape(r *tensor.Region) {
	global = r.Alloc(4) // want "region-owned memory stored into a package-level variable"
}

// returnEscape hands a carve to a caller that cannot see the region.
func returnEscape(g *autodiff.Graph) *tensor.Tensor {
	t := g.AllocLike(global)
	return t // want "region-owned memory returned to the caller"
}

// channelEscape sends a carve to an unknown receiver.
func channelEscape(r *tensor.Region, ch chan *tensor.Tensor) {
	t := r.Alloc(4)
	ch <- t // want "region-owned memory sent on a channel"
}

// reshapeEscape returns a view: views share the region's memory.
func reshapeEscape(g *autodiff.Graph) *tensor.Tensor {
	t := g.Alloc(4)
	return t.Reshape(2, 2) // want "region-owned memory returned to the caller"
}

// resetDoesNotSettle: rewinding the region leaves the carve dangling, so a
// later store is still an escape.
func resetDoesNotSettle(r *tensor.Region, h *holder) {
	t := r.Alloc(4)
	r.Reset()
	h.buf = t // want "region-owned memory stored into a struct field"
}

// branchEscape leaks on only one path; the dataflow still sees it.
func branchEscape(g *autodiff.Graph, h *holder, cond bool) {
	t := g.Alloc(4)
	if cond {
		return
	}
	h.buf = t // want "region-owned memory stored into a struct field"
}

// owner is a type that owns a region, like autodiff.Graph.
type owner struct {
	region tensor.Region
}

// Alloc returns a carve of its own region: the sanctioned owner shape. The
// method is a source itself, so its callers are checked instead.
func (o *owner) Alloc(shape ...int) *tensor.Tensor {
	return o.region.Alloc(shape...)
}

// AllocLike is an owner method too, but the carve is not from its region.
func (o *owner) AllocLike(g *autodiff.Graph, t *tensor.Tensor) *tensor.Tensor {
	return g.AllocLike(t) // want "region-owned memory returned to the caller"
}

// Peek returns its own region's carve without being an allocator method.
func (o *owner) Peek() *tensor.Tensor {
	return o.region.Alloc(1) // want "region-owned memory returned to the caller"
}

// cloneLaunders copies the data out of the region entirely.
func cloneLaunders(g *autodiff.Graph) *tensor.Tensor {
	t := g.Alloc(4)
	t.Fill(1)
	return t.Clone()
}

// scalarAllowed extracts a value, not the memory.
func scalarAllowed(r *tensor.Region) float64 {
	t := r.Alloc(4)
	v := t.Data[0]
	return v
}

// argumentAllowed passes the carve down; the callee is checked on its own.
func argumentAllowed(g *autodiff.Graph, a *tensor.Tensor) *tensor.Tensor {
	return tensor.AddTo(tensor.New(4), g.Alloc(4), a)
}

// nodeFieldAllowed stores a carve into an autodiff node: nodes die with the
// tape at the same Reset that rewinds the region.
func nodeFieldAllowed(g *autodiff.Graph, n *autodiff.Node) {
	n.Grad = g.Alloc(4)
}
