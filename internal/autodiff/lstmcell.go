package autodiff

import (
	"fmt"
	"math"

	"ovs/internal/tensor"
)

// This file implements the fused LSTM cell: one tape node per timestep in
// place of the ~16-node chain (Row/MatMul/Reshape/Add/SliceVec×4/Sigmoid×3/
// Tanh×2/Mul×3/Add) the graph-built recurrence records. The input projection
// X·Wx+b is hoisted out of the timestep loop by the caller into a single
// sequence-level GEMM (the pre operand); the cell fuses the hidden-state
// projection, the gate nonlinearities, and the state update into one forward
// kernel, and the entire step's backward into one hand-written rule.
//
// Bitwise contract. The fused cell is bitwise-identical — values and every
// gradient — to the unfused graph path
//
//	flat = Add(Row(pre, t), Reshape(MatMul(h, wh), 4H))
//	i,f,o = Sigmoid(SliceVec(flat, ...)); g = Tanh(SliceVec(flat, ...))
//	cNew  = Add(Mul(f, cPrev), Mul(i, g))
//	hNew  = Mul(o, Tanh(cNew))
//
// at any worker count, pooling mode, and input — including signed zeros and
// infinities. The single carve-out is NaN payload bits: x86 NaN propagation
// returns the first NaN source operand, and operand order of commutative
// float ops is a compiler choice, so a NaN combined from two distinct NaNs
// may carry a different sign/payload per path (NaN-ness itself always
// agrees). Three mechanisms carry the guarantee:
//
//  1. Linear algebra runs the identical kernels: tensor.VecMatTo /
//     MatVecNTAcc / OuterAccFMA reproduce the naive-GEMM row, dot, and k=1
//     outer paths (assembly or math.FMA) that the (1×H)·(H×4H) products of
//     the graph path dispatch to.
//  2. Scalar expressions copy the graph kernels' association exactly — e.g.
//     the cell state is float64(f·cPrev) + float64(i·g), two individually
//     rounded products then one add, matching the two Mul stores and the Add.
//  3. The graph path materializes each backward intermediate by accumulating
//     into a freshly zeroed gradient, and 0+x flushes a negative zero to +0.
//     The fused backward inserts the same "0 +" at each point where the graph
//     allocates a fresh gradient, so even signed zeros agree.

// lstmCellExtSize returns the per-cell auxiliary buffer length: the forward
// saves [c | i | f | o | g | tanh(c)] and the backward parks the incoming
// cell-state gradient in the seventh H-slot (dcAcc), written by step t+1's
// backward before step t's runs (reverse tape order guarantees it).
func lstmCellExtSize(hidden int) int { return 7 * hidden }

// lstmScratch returns the tape's fused-cell scratch: a read-only all-zero
// initial state of length hidden and a 4·hidden work row (the forward's h·Wh
// projection, the backward's gate gradients). Both live as long as the tape
// and grow on demand, so a step allocates nothing. The zero state has its own
// buffer, never written, so it stays exactly zero whatever widths share the
// tape.
func (g *Graph) lstmScratch(hidden int) (zero, work []float64) {
	if len(g.lstmZero) < hidden {
		g.lstmZero = make([]float64, hidden)
	}
	if len(g.lstmWork) < 4*hidden {
		g.lstmWork = make([]float64, 4*hidden)
	}
	return g.lstmZero[:hidden], g.lstmWork[:4*hidden]
}

// LSTMCell records one fused LSTM timestep and returns h(t) as a rank-1
// node of length hidden. pre is the hoisted input projection X·Wx+b of the
// whole sequence, shape (T × 4*hidden) with gate order [i|f|o|g]; t is the
// timestep (row of pre); prev is the LSTMCell node of step t-1, or nil at
// t=0 (zero initial state); wh is the (hidden × 4*hidden) recurrent weight
// node.
func LSTMCell(pre *Node, t int, prev *Node, wh *Node, hidden int) *Node {
	h4 := 4 * hidden
	if pre.Value.Rank() != 2 || pre.Value.Dim(1) != h4 {
		panic(fmt.Sprintf("autodiff: LSTMCell pre shape %v, want (T × %d)", pre.Value.Shape(), h4))
	}
	if t < 0 || t >= pre.Value.Dim(0) {
		panic(fmt.Sprintf("autodiff: LSTMCell step %d out of range for %d-step pre", t, pre.Value.Dim(0)))
	}
	if wh.Value.Rank() != 2 || wh.Value.Dim(0) != hidden || wh.Value.Dim(1) != h4 {
		panic(fmt.Sprintf("autodiff: LSTMCell wh shape %v, want [%d %d]", wh.Value.Shape(), hidden, h4))
	}
	var g *Graph
	if prev != nil {
		if prev.ext == nil || len(prev.ext.Data) != lstmCellExtSize(hidden) || prev.Value.Size() != hidden {
			panic("autodiff: LSTMCell prev is not an LSTMCell node of matching hidden size")
		}
		g = sameGraph("LSTMCell", pre, wh, prev)
	} else {
		g = sameGraph("LSTMCell", pre, wh)
	}

	ext := g.Alloc(lstmCellExtSize(hidden))
	cv := ext.Data[0:hidden]
	iv := ext.Data[hidden : 2*hidden]
	fv := ext.Data[2*hidden : 3*hidden]
	ov := ext.Data[3*hidden : 4*hidden]
	gv := ext.Data[4*hidden : 5*hidden]
	th := ext.Data[5*hidden : 6*hidden]

	zero, hwd := g.lstmScratch(hidden)
	hPrev, cPrev := zero, zero
	if prev != nil {
		hPrev = prev.Value.Data
		cPrev = prev.ext.Data[0:hidden]
	}
	// At t=0 the initial state is a genuine zero vector, and the projection
	// and gate arithmetic run on it honestly: 0·Wh is only ±0 when Wh is
	// finite, and the unfused path computes it, so the fused one must.
	tensor.VecMatTo(hwd, hPrev, wh.Value.Data, hidden, h4)
	preRow := pre.Value.Data[t*h4 : (t+1)*h4]

	val := g.Alloc(hidden)
	for j := 0; j < hidden; j++ {
		zi := preRow[j] + hwd[j]
		zf := preRow[hidden+j] + hwd[hidden+j]
		zo := preRow[2*hidden+j] + hwd[2*hidden+j]
		zg := preRow[3*hidden+j] + hwd[3*hidden+j]
		ij := 1 / (1 + math.Exp(-zi))
		fj := 1 / (1 + math.Exp(-zf))
		oj := 1 / (1 + math.Exp(-zo))
		gj := math.Tanh(zg)
		// Two rounded products then one add: the exact association of the
		// graph path's Mul/Mul/Add (the conversions forbid FMA contraction).
		cj := float64(fj*cPrev[j]) + float64(ij*gj)
		tj := math.Tanh(cj)
		iv[j], fv[j], ov[j], gv[j] = ij, fj, oj, gj
		cv[j], th[j] = cj, tj
		val.Data[j] = oj * tj
	}

	req := pre.requires || wh.requires || (prev != nil && prev.requires)
	out := g.newNode(val, req)
	out.backFn, out.a, out.b, out.c = backLSTMCell, prev, pre, wh
	out.ext, out.i0, out.i1 = ext, t, hidden
	return out
}

// backLSTMCell is the fused backward rule of one LSTM step. out.Grad holds
// the total dL/dh(t): the sequence-consumer contribution (StackRows' row
// gradient) plus dgates(t+1)·Whᵀ, which step t+1's backward accumulated into
// this node before the reverse sweep reached it — the same two adds, in the
// same order, the unfused graph performs. The incoming cell-state gradient
// dL/dc(t) waits in this cell's dcAcc slot, parked there by step t+1.
//
// Every "0 +" below marks a point where the graph path materializes an
// intermediate gradient by accumulating into a freshly zeroed buffer; the add
// flushes a negative zero to +0 exactly as the unfused accumulation does.
func backLSTMCell(out *Node, tape *Graph) {
	prev, pre, wh := out.a, out.b, out.c
	hidden, t := out.i1, out.i0
	h4 := 4 * hidden
	ext := out.ext.Data
	iv := ext[hidden : 2*hidden]
	fv := ext[2*hidden : 3*hidden]
	ov := ext[3*hidden : 4*hidden]
	gv := ext[4*hidden : 5*hidden]
	th := ext[5*hidden : 6*hidden]
	dcAcc := ext[6*hidden : 7*hidden]
	grad := out.Grad.Data

	zero, dgd := tape.lstmScratch(hidden)
	hPrev, cPrev := zero, zero
	var prevDc []float64
	if prev != nil {
		hPrev = prev.Value.Data
		cPrev = prev.ext.Data[0:hidden]
		if prev.requires {
			prevDc = prev.ext.Data[6*hidden : 7*hidden]
			// The dc(t+1) contribution below writes through this alias.
			prev.ext.NoteMutation()
		}
	}

	for j := 0; j < hidden; j++ {
		gj := grad[j]
		tj, oj := th[j], ov[j]
		ij, fj, ggj := iv[j], fv[j], gv[j]
		do := 0 + gj*tj  // o-gate output grad (fresh += G·tanh(c))
		dth := 0 + gj*oj // tanh(c) grad (fresh += G·o)
		// dc = parked dc(t+1) contribution, then the fused tanh-backward add.
		dc := dcAcc[j] + dth*(1-tj*tj)
		dcF := 0 + dc // the fresh Add-backward copies both Mul grads receive
		dgd[j] = 0 + (0+dcF*ggj)*ij*(1-ij)
		dgd[hidden+j] = 0 + (0+dcF*cPrev[j])*fj*(1-fj)
		dgd[2*hidden+j] = 0 + do*oj*(1-oj)
		dgd[3*hidden+j] = 0 + (0+dcF*ij)*(1-ggj*ggj)
		if prevDc != nil {
			prevDc[j] = 0 + dcF*fj // parked for step t-1's backward
		}
	}

	// dh(t-1) += dgates·Whᵀ — skipped at t=0, where the unfused path's h(0)
	// is a gradient-free Const leaf.
	if prev != nil && prev.requires {
		tensor.MatVecNTAcc(prev.ensureGrad(tape).Data, dgd, wh.Value.Data, hidden, h4)
	}
	// dWh += h(t-1)ᵀ·dgates — at t=0 h(t-1) is the zero vector and the
	// unfused path still accumulates the ±0 products; reproduce that rather
	// than skip it.
	if wh.requires {
		tensor.OuterAccFMA(wh.ensureGrad(tape).Data, hPrev, dgd, hidden, h4)
	}
	if pre.requires {
		prow := pre.ensureGrad(tape).Data[t*h4 : (t+1)*h4]
		for j, v := range dgd[:h4] {
			prow[j] += v
		}
	}
}
