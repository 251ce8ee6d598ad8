package tensor

import "math"

// This file exports the three slice-level linear-algebra primitives the fused
// LSTM cell (autodiff.LSTMCell) is built from. Each one reproduces, exactly,
// the per-element FMA sequence the corresponding small MatMul entry point
// performs through gemmNaive — same kernels (the assembly row/dot helpers
// when available, math.FMA otherwise), same ascending-k order, same
// sum-then-one-add accumulate association — so a fused cell is
// bitwise-identical to the unfused graph it replaces.

// VecMatTo computes dst = x · B for a vector x of length k and a row-major
// k×n matrix b, overwriting dst[0:n]. It is the hidden-state projection
// h·Wh of one LSTM step: the same row kernel MatMulTo's naive path runs for a
// (1×k)·(k×n) product.
func VecMatTo(dst, x, b []float64, k, n int) {
	_ = dst[n-1]
	if gemmHasAsm {
		gemmRowFMAAsm(&dst[0], &x[0], 1, &b[0], n, k, n)
		return
	}
	// Portable mirror of gemmNaiveNN for a single row: zero the output row,
	// then one FMA per cell per ascending k step.
	for j := range dst[:n] {
		dst[j] = 0
	}
	for p, av := range x[:k] {
		brow := b[p*n : p*n+n]
		for j, bv := range brow {
			dst[j] = math.FMA(av, bv, dst[j])
		}
	}
}

// MatVecNTAcc accumulates dst[j] += Σ_p g[p]·b[j,p] for a vector g of length
// k and a row-major n×k matrix b. It is the dh(t-1) = dgates·Whᵀ backward
// rule of one LSTM step: the same strided-dot kernel MatMulNTAcc's naive path
// runs for a (1×k)·(k×n) product against a transposed B view, with the bare
// k-sum folded into dst by a single add per element.
func MatVecNTAcc(dst, g, b []float64, n, k int) {
	_ = dst[n-1]
	j := 0
	if gemmHasAsm {
		// Four rows of b at a time: each output element keeps its own scalar
		// ascending-k chain (bitwise-identical to the one-at-a-time kernel);
		// the interleave exists only to fill the FMA pipeline, which a single
		// serially-dependent chain leaves mostly idle.
		var s4 [4]float64
		for ; j+4 <= n; j += 4 {
			gemmDot4FMAAsm(&s4[0], &g[0], 1, &b[j*k], 1, k, k)
			dst[j] += s4[0]
			dst[j+1] += s4[1]
			dst[j+2] += s4[2]
			dst[j+3] += s4[3]
		}
		for ; j < n; j++ {
			s := gemmDotFMAAsm(&g[0], 1, &b[j*k], 1, k)
			dst[j] += s
		}
		return
	}
	for ; j < n; j++ {
		brow := b[j*k : j*k+k]
		var s float64
		for p, gv := range g[:k] {
			s = math.FMA(gv, brow[p], s)
		}
		dst[j] += s
	}
}

// OuterAccFMA accumulates the outer product dst += x ⊗ y for vectors x (m)
// and y (n) into a row-major m×n matrix. It is the dWh += h(t-1)ᵀ·dgates
// backward rule of one LSTM step: MatMulTNAcc's naive path with k=1 computes
// each element as a single-step FMA chain from zero (the row kernel's bare
// sum) followed by one add into dst — reproduced here without the scratch
// row.
func OuterAccFMA(dst, x, y []float64, m, n int) {
	_ = dst[m*n-1]
	if gemmHasAsm {
		// One k=1 row-kernel call per output column block: the asm
		// zero-initializes the stack block to the bare FMA(x_i, y_j, 0)
		// products, and the add folds them in — the same block-then-one-add
		// sequence gemmNaiveAsm's accumulate path performs.
		var blk [accBlock]float64
		for i := 0; i < m; i++ {
			drow := dst[i*n : i*n+n]
			for j0 := 0; j0 < n; j0 += accBlock {
				nb := min(accBlock, n-j0)
				gemmRowFMAAsm(&blk[0], &x[i], 1, &y[j0], n, 1, nb)
				for j, s := range blk[:nb] {
					drow[j0+j] += s
				}
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		drow := dst[i*n : i*n+n]
		xv := x[i]
		for j, yv := range y[:n] {
			s := math.FMA(xv, yv, 0)
			drow[j] += s
		}
	}
}
