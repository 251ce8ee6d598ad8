package tensor

import (
	"fmt"
	"math"

	"ovs/internal/parallel"
)

// This file holds the fused and destination-passing kernels of the
// zero-allocation training path. The *To kernels write into a caller-provided
// output (typically a tensor carved from a tape region), the *Acc kernels accumulate a backward
// rule directly into a gradient without materializing intermediates, and the
// *InPlace kernels fuse optimizer updates.
//
// Besides the MatMul* entry points, which run the blocked GEMM (gemm.go),
// only AdamStepInPlace splits its work; every other kernel here is a plain
// serial loop. Adam partitions output indices with the per-index
// computation fixed, so results are bitwise-identical at any worker count.
// It checks its size against the parallel grain before constructing the
// parallel.For closure: a closure passed to another function escapes to the
// heap, so small parameter tensors take an explicit serial loop instead and
// allocate nothing.

// AddTo computes dst = a + b elementwise and returns dst. dst may alias a or
// b. Shapes must match.
func AddTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("AddTo", a, b)
	assertSameShape("AddTo", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// SubTo computes dst = a - b elementwise and returns dst. dst may alias a or
// b. Shapes must match.
func SubTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("SubTo", a, b)
	assertSameShape("SubTo", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// MulTo computes the elementwise product dst = a * b and returns dst. dst may
// alias a or b. Shapes must match.
func MulTo(dst, a, b *Tensor) *Tensor {
	assertSameShape("MulTo", a, b)
	assertSameShape("MulTo", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// ScaleTo computes dst = a * s elementwise and returns dst. dst may alias a.
func ScaleTo(dst, a *Tensor, s float64) *Tensor {
	assertSameShape("ScaleTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = x * s
	}
	return dst
}

// AddScalarTo computes dst = a + s elementwise and returns dst. dst may
// alias a.
func AddScalarTo(dst, a *Tensor, s float64) *Tensor {
	assertSameShape("AddScalarTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = x + s
	}
	return dst
}

// ScaleInPlace multiplies every element of t by s and returns t.
func ScaleInPlace(t *Tensor, s float64) *Tensor {
	ScaleTo(t, t, s)
	t.NoteMutation()
	return t
}

// MatMulTo computes the matrix product dst = a · b for rank-2 operands
// (m×k)·(k×n)→(m×n) and returns dst. dst must not alias a or b; its prior
// contents are overwritten. It routes through the packed, cache-blocked GEMM
// core (see gemm.go).
func MatMulTo(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTo requires rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTo inner dimensions differ: %v x %v", a.shape, b.shape))
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTo output shape %v, want [%d %d]", dst.shape, m, n))
	}
	gemm(dst.Data, n, gemmView{a.Data, k, 1}, gemmView{b.Data, n, 1}, m, n, k, false, packSource(b))
	return dst
}

// MatMulNTAcc accumulates dst += a · bᵀ where a is (m×k), b is (n×k), and dst
// is (m×n). It fuses the dL/dA = dL/dOut · Bᵀ backward rule of MatMul,
// avoiding the transpose and product temporaries; the GEMM core absorbs the
// transpose into B's packing strides.
func MatMulNTAcc(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulNTAcc requires rank-2 operands, got %v += %v x %vᵀ", dst.shape, a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulNTAcc shape mismatch %v += %v x %vᵀ", dst.shape, a.shape, b.shape))
	}
	gemm(dst.Data, n, gemmView{a.Data, k, 1}, gemmView{b.Data, 1, k}, m, n, k, true, packSource(b))
	return dst
}

// MatMulTNAcc accumulates dst += aᵀ · b where a is (m×k), b is (m×n), and dst
// is (k×n). It fuses the dL/dB = Aᵀ · dL/dOut backward rule of MatMul; the
// GEMM core absorbs the transpose into A's packing strides.
func MatMulTNAcc(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTNAcc shape mismatch %v += %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	m2, n := b.shape[0], b.shape[1]
	if m != m2 || dst.shape[0] != k || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTNAcc shape mismatch %v += %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	gemm(dst.Data, n, gemmView{a.Data, 1, k}, gemmView{b.Data, n, 1}, k, n, m, true, packSource(b))
	return dst
}

// TransposeTo computes dst = aᵀ for a rank-2 tensor and returns dst. dst must
// not alias a.
func TransposeTo(dst, a *Tensor) *Tensor {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != a.shape[0] {
		panic(fmt.Sprintf("tensor: TransposeTo shape mismatch %v = %vᵀ", dst.shape, a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return dst
}

// TransposeAcc accumulates dst += aᵀ for rank-2 tensors. It fuses the
// Transpose backward rule. dst must not alias a.
func TransposeAcc(dst, a *Tensor) *Tensor {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != a.shape[0] {
		panic(fmt.Sprintf("tensor: TransposeAcc shape mismatch %v += %vᵀ", dst.shape, a.shape))
	}
	m, n := dst.shape[0], dst.shape[1]
	for i := 0; i < m; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] += a.Data[j*m+i]
		}
	}
	return dst
}

// AddRowVectorTo computes dst = a + v broadcast over rows, where a and dst
// are (m×n) and v is (n). dst may alias a.
func AddRowVectorTo(dst, a, v *Tensor) *Tensor {
	if a.Rank() != 2 || v.Rank() != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVectorTo shape mismatch %v + %v", a.shape, v.shape))
	}
	assertSameShape("AddRowVectorTo", dst, a)
	m, n := a.shape[0], a.shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.Data[i*n+j] = a.Data[i*n+j] + v.Data[j]
		}
	}
	return dst
}

// SigmoidTo computes dst = 1/(1+e^-a) elementwise and returns dst. dst may
// alias a.
func SigmoidTo(dst, a *Tensor) *Tensor {
	assertSameShape("SigmoidTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = 1 / (1 + math.Exp(-x))
	}
	return dst
}

// SigmoidBackwardAcc accumulates dst += grad * val * (1-val), the fused
// sigmoid backward rule, where val holds the forward sigmoid outputs.
func SigmoidBackwardAcc(dst, grad, val *Tensor) *Tensor {
	assertSameShape("SigmoidBackwardAcc", grad, val)
	assertSameShape("SigmoidBackwardAcc", dst, grad)
	for i := range dst.Data {
		s := val.Data[i]
		dst.Data[i] += grad.Data[i] * s * (1 - s)
	}
	return dst
}

// TanhTo computes dst = tanh(a) elementwise and returns dst. dst may alias a.
func TanhTo(dst, a *Tensor) *Tensor {
	assertSameShape("TanhTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = math.Tanh(x)
	}
	return dst
}

// TanhBackwardAcc accumulates dst += grad * (1 - val²), the fused tanh
// backward rule, where val holds the forward tanh outputs.
func TanhBackwardAcc(dst, grad, val *Tensor) *Tensor {
	assertSameShape("TanhBackwardAcc", grad, val)
	assertSameShape("TanhBackwardAcc", dst, grad)
	for i := range dst.Data {
		th := val.Data[i]
		dst.Data[i] += grad.Data[i] * (1 - th*th)
	}
	return dst
}

// ReLUTo computes dst = max(0, a) elementwise and returns dst. dst may
// alias a.
func ReLUTo(dst, a *Tensor) *Tensor {
	assertSameShape("ReLUTo", dst, a)
	for i, x := range a.Data {
		if x > 0 {
			dst.Data[i] = x
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// SqrtTo computes dst = √a elementwise and returns dst. dst may alias a.
func SqrtTo(dst, a *Tensor) *Tensor {
	assertSameShape("SqrtTo", dst, a)
	for i, x := range a.Data {
		dst.Data[i] = math.Sqrt(x)
	}
	return dst
}

// SoftplusTo computes dst = log(1+e^a) elementwise (with the same overflow
// guard as the autodiff op) and returns dst. dst may alias a.
func SoftplusTo(dst, a *Tensor) *Tensor {
	assertSameShape("SoftplusTo", dst, a)
	for i, x := range a.Data {
		if x > 30 {
			dst.Data[i] = x // avoids overflow; log(1+e^x) ≈ x
		} else {
			dst.Data[i] = math.Log1p(math.Exp(x))
		}
	}
	return dst
}

// AdamStepInPlace applies one fused Adam update to value from grad, using m
// and v as the persistent first/second moment buffers. bc1 and bc2 are the
// bias-correction terms 1-β₁ᵗ and 1-β₂ᵗ for the current step t. The update
// order per element matches the reference loop exactly, so results are
// bitwise-identical to the unfused optimizer.
func AdamStepInPlace(value, grad, m, v *Tensor, lr, beta1, beta2, eps, bc1, bc2 float64) {
	assertSameShape("AdamStepInPlace", value, grad)
	assertSameShape("AdamStepInPlace", value, m)
	assertSameShape("AdamStepInPlace", value, v)
	n := len(value.Data)
	// One element's update costs about 8 scalar ops.
	if grain := parMinWork / 8; n <= grain {
		adamStepRange(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2, 0, n)
	} else {
		parallel.For(n, grain, func(lo, hi int) {
			adamStepRange(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2, lo, hi)
		})
	}
	value.NoteMutation()
}

func adamStepRange(value, grad, m, v *Tensor, lr, beta1, beta2, eps, bc1, bc2 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		g := grad.Data[i]
		m.Data[i] = beta1*m.Data[i] + (1-beta1)*g
		v.Data[i] = beta2*v.Data[i] + (1-beta2)*g*g
		mHat := m.Data[i] / bc1
		vHat := v.Data[i] / bc2
		value.Data[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}
