package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatMulAssociativity: (AB)C == A(BC) for random conformable shapes.
func TestMatMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		m, k, n, p := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, n, p)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		if !AllClose(lhs, rhs, 1e-9) {
			t.Fatalf("associativity violated at %dx%dx%dx%d", m, k, n, p)
		}
	}
}

// TestMatMulDistributesOverAdd: A(B+C) == AB + AC.
func TestMatMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		if !AllClose(lhs, rhs, 1e-9) {
			t.Fatalf("distributivity violated at %dx%dx%d", m, k, n)
		}
	}
}

// TestSolveIsMatMulInverse: Solve(A, A·x) recovers x for well-conditioned A.
func TestSolveIsMatMulInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		a := Randn(rng, 1, n, n)
		// Diagonal dominance for conditioning.
		for i := 0; i < n; i++ {
			a.Set(a.At(i, i)+float64(n), i, i)
		}
		x := Randn(rng, 1, n)
		b := MatVec(a, x)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !AllClose(got, x, 1e-8) {
			t.Fatalf("Solve(A, Ax) != x at n=%d", n)
		}
	}
}

// TestNormTriangleInequality: ‖a+b‖ ≤ ‖a‖ + ‖b‖.
func TestNormTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		a := Randn(rng, 2, n)
		b := Randn(rng, 2, n)
		if Add(a, b).Norm2() > a.Norm2()+b.Norm2()+1e-9 {
			t.Fatal("triangle inequality violated")
		}
	}
}

// TestTransposeRowColConsistency: Aᵀ[j,i] == A[i,j] for every cell.
func TestTransposeRowColConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := Randn(rng, 1, 5, 7)
	at := Transpose(a)
	if at.Dim(0) != 7 || at.Dim(1) != 5 {
		t.Fatalf("Transpose shape = %v, want [7 5]", at.Shape())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatalf("Aᵀ[%d,%d] = %v, want A[%d,%d] = %v", j, i, at.At(j, i), i, j, a.At(i, j))
			}
		}
	}
}

// TestRidgeShrinkageMonotone: weight norm decreases monotonically in λ.
func TestRidgeShrinkageMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := Randn(rng, 1, 30, 5)
	y := Randn(rng, 1, 30, 2)
	prev := math.Inf(1)
	for _, lambda := range []float64{1e-6, 1e-3, 1, 1e3} {
		w, err := Ridge(x, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if n := w.Norm2(); n > prev+1e-9 {
			t.Fatalf("ridge norm increased at λ=%v: %v > %v", lambda, n, prev)
		} else {
			prev = n
		}
	}
}
