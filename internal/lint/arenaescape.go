package lint

import (
	"go/ast"
	"go/types"
)

// ArenaEscape enforces the region ownership rule (DESIGN.md §11): a tensor
// carved from a tape's region — Graph.Alloc/AllocLike or Region.Alloc/
// AllocLike — or a chunk taken from the chunk pool (ChunkPool.take) is
// reclaimed when its owner resets or releases it, and any reference that
// survives past that point dangles: the memory is zeroed and carved for an
// unrelated computation, which corrupts results silently at exactly the
// worker count and epoch where the region rewinds.
//
// The analysis is an intraprocedural taint pass over the CFG. A source call
// taints the assigned local; taint propagates through ident copies, Reshape
// views (they share the backing array), slicing, and composite literals that
// embed a tainted value. Only Clone settles ownership, by copying the data
// out of the region; returning memory to its owner (a chunk put, a region
// Reset) never does, since the value is then dangling.
//
// Still-tainted values must not outlive the frame in a way the owner cannot
// see: a store into a struct field, package-level variable, map or slice
// element of either, a channel send, or a return hands the memory to an
// owner with an unknown lifetime and is a diagnostic. Passing a tainted value
// as a call argument is fine — the callee is subject to the same analysis.
// Storing into fields of an autodiff Node is also fine: nodes die with the
// tape, at the same Reset that rewinds the region.
//
// One return is sanctioned: an Alloc/AllocLike method may return a carve of
// the region that is its own receiver or a field of its receiver (Graph.Alloc
// returning g.region.Alloc, Region.AllocLike returning r.Alloc). Such a
// method is itself a source, so the carve stays tracked in every caller.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "flags region-owned tensors and pool chunks escaping through fields, globals, channels, or returns",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, fb := range FuncBodies(f) {
				checkArenaEscape(p, fb)
			}
		}
	},
}

// escFact is the set of tainted (arena-owned) locals.
type escFact map[types.Object]bool

func (f escFact) clone() escFact {
	c := make(escFact, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

func escJoin(a, b escFact) escFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	c := a.clone()
	for k := range b {
		c[k] = true
	}
	return c
}

func escEqual(a, b escFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

type arenaEscScope struct {
	pass *Pass
	// owner is the receiver of an Alloc/AllocLike method (the one function
	// shape allowed to return a carve), or nil.
	owner  types.Object
	report func(n ast.Node, what string)
}

// ownerRecv returns the receiver object when fb is an Alloc/AllocLike method,
// the sanctioned owner-returns-own-carve shape.
func ownerRecv(p *Pass, fb FuncBody) types.Object {
	if fb.Recv == nil || len(fb.Recv.List) != 1 || len(fb.Recv.List[0].Names) != 1 {
		return nil
	}
	if fb.Name != "Alloc" && fb.Name != "AllocLike" {
		return nil
	}
	return p.Info.Defs[fb.Recv.List[0].Names[0]]
}

// ownCarve reports whether e is a region carve of the owner's own region:
// owner.Alloc(...) / owner.AllocLike(...) or owner.f.Alloc(...) /
// owner.f.AllocLike(...).
func (sc *arenaEscScope) ownCarve(e ast.Expr) bool {
	if sc.owner == nil {
		return false
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isArenaSource(sc.pass, call) {
		return false
	}
	recv := ast.Unparen(call.Fun.(*ast.SelectorExpr).X)
	if f, ok := recv.(*ast.SelectorExpr); ok {
		recv = ast.Unparen(f.X)
	}
	return usedIdentObj(sc.pass, recv) == sc.owner
}

func checkArenaEscape(p *Pass, fb FuncBody) {
	// Pre-scan: no arena source call, nothing to track.
	found := false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isArenaSource(p, call) {
			found = true
		}
		return true
	})
	if !found {
		return
	}

	sc := &arenaEscScope{pass: p, owner: ownerRecv(p, fb)}
	cfg := BuildCFG(fb.Body)
	spec := FlowSpec[escFact]{
		Entry: escFact{},
		Join:  escJoin,
		Equal: escEqual,
		Transfer: func(fact escFact, n ast.Node) escFact {
			return sc.transfer(fact, n)
		},
	}
	in, _ := SolveForward(cfg, spec)

	sc.report = func(n ast.Node, what string) {
		p.Reportf(n.Pos(), "region-owned memory %s; its owner reclaims it on Reset — Clone it before it leaves this frame", what)
	}
	for _, b := range cfg.Blocks {
		fact, reachable := in[b]
		if !reachable {
			continue
		}
		for _, n := range b.Nodes {
			fact = sc.transfer(fact, n)
		}
	}
}

func (sc *arenaEscScope) transfer(fact escFact, n ast.Node) escFact {
	out := fact
	mutated := false
	mutable := func() escFact {
		if !mutated {
			out = fact.clone()
			mutated = true
		}
		return out
	}

	switch s := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			obj, direct := directTarget(sc.pass, lhs)
			switch {
			case direct && obj != nil:
				// Only values whose type can carry the tensor propagate
				// taint: `v := t.Data[0]` extracts a scalar, not the buffer.
				tainted := rhs != nil && typeCarriesRegion(sc.pass.TypeOf(lhs)) && sc.taintedExpr(out, rhs)
				if tainted && isPackageLevel(obj) {
					if sc.report != nil {
						sc.report(lhs, "stored into a package-level variable")
					}
					break
				}
				switch {
				case tainted && !out[obj]:
					mutable()[obj] = true
				case !tainted && out[obj]:
					delete(mutable(), obj)
				}
			default:
				// Non-ident target: field store, global, or element write.
				if rhs != nil && typeCarriesRegion(sc.pass.TypeOf(rhs)) && sc.taintedExpr(out, rhs) {
					if what, bad := escapingTarget(sc.pass, lhs); bad {
						if sc.report != nil {
							sc.report(lhs, "stored into "+what)
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		if typeCarriesRegion(sc.pass.TypeOf(s.Value)) && sc.taintedExpr(out, s.Value) {
			if sc.report != nil {
				sc.report(s, "sent on a channel")
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if typeCarriesRegion(sc.pass.TypeOf(res)) && !sc.ownCarve(res) && sc.taintedExpr(out, res) {
				if sc.report != nil {
					sc.report(res, "returned to the caller")
				}
			}
		}
	}
	return out
}

// taintedExpr reports whether e evaluates to (or embeds) region-owned memory
// under the current fact.
func (sc *arenaEscScope) taintedExpr(fact escFact, e ast.Expr) bool {
	tainted := false
	inspectNoFuncLit(e, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := sc.pass.Info.Uses[n]; obj != nil && fact[obj] {
				tainted = true
			}
		case *ast.CallExpr:
			if isArenaSource(sc.pass, n) {
				tainted = true
				return false
			}
			// Calls otherwise launder taint (Clone, kernels): do not descend
			// into arguments, their use is the callee's concern. Except
			// Reshape/slicing, which share the backing array.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Reshape" {
				if sc.taintedExpr(fact, sel.X) {
					tainted = true
				}
			}
			return false
		}
		return true
	})
	return tainted
}

// escapingTarget classifies a non-ident assignment target that hands the
// value to a longer-lived owner. Node fields are exempt: the tape dies at
// the same Reset that reclaims the tensor.
func escapingTarget(p *Pass, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if isNodeType(p.TypeOf(lhs.X)) {
			return "", false
		}
		return "a struct field", true
	case *ast.IndexExpr:
		// Element of what? A local slice is fine; a field or global is not.
		switch base := ast.Unparen(lhs.X).(type) {
		case *ast.SelectorExpr:
			if isNodeType(p.TypeOf(base.X)) {
				return "", false
			}
			return "an element of a struct field", true
		case *ast.Ident:
			if obj := p.Info.Uses[base]; obj != nil && isPackageLevel(obj) {
				return "an element of a package-level variable", true
			}
			return "", false
		}
		return "", false
	case *ast.StarExpr:
		return "a dereferenced pointer", true
	case *ast.Ident:
		if obj := p.Info.Uses[lhs]; obj != nil && isPackageLevel(obj) {
			return "a package-level variable", true
		}
	}
	return "", false
}

// typeCarriesRegion reports whether a value of type t can hold (a reference
// to) region-owned memory: a tensor or a float64 slice (a chunk, or a
// tensor's Data), or a pointer/slice/array/map/channel whose element reaches
// one. Struct types are excluded — field stores are classified as sinks, not
// carriers.
func typeCarriesRegion(t types.Type) bool {
	for i := 0; i < 8 && t != nil; i++ {
		if isTensorType(t) || isFloatSlice(t) {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// isArenaSource classifies calls that hand out region-owned memory:
// Graph.Alloc/AllocLike, Region.Alloc/AllocLike, and ChunkPool.take.
func isArenaSource(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := p.TypeOf(sel.X)
	switch sel.Sel.Name {
	case "Alloc", "AllocLike":
		return isGraphType(recv) || isNamedType(recv, "Region", "internal/tensor")
	case "take":
		return isNamedType(recv, "ChunkPool", "internal/tensor")
	}
	return false
}

// usedIdentObj returns the object of a plain identifier expression.
func usedIdentObj(p *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return p.Info.Uses[id]
}

// isNodeType reports whether t is (a pointer to) autodiff.Node.
func isNodeType(t types.Type) bool { return isNamedType(t, "Node", "internal/autodiff") }
