package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZeroFill(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape: %v", x.Shape())
	}
	if x.Size() != 24 {
		t.Fatalf("size = %d, want 24", x.Size())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, {3, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	// Row-major layout: element (1,2) is at offset 1*4+2.
	if x.Data[6] != 7.5 {
		t.Fatalf("row-major layout violated: %v", x.Data)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	_ = x.At(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy the slice")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	c := x.Clone()
	c.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares backing data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 1)
	if x.At(0, 1) != 42 {
		t.Fatal("Reshape must share backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong element count did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !AllClose(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if !AllClose(MatMul(a, id), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !AllClose(MatMul(id, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatVecAgainstMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 5, 3)
	v := Randn(rng, 1, 3)
	got := MatVec(a, v)
	want := MatMul(a, v.Reshape(3, 1)).Reshape(5)
	if !AllClose(got, want, 1e-12) {
		t.Fatalf("MatVec = %v, want %v", got, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 4, 7)
	if !AllClose(Transpose(Transpose(a)), a, 0) {
		t.Fatal("transpose is not an involution")
	}
	if got := Transpose(a).At(2, 3); got != a.At(3, 2) {
		t.Fatal("transpose element mismatch")
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if !AllClose(Add(a, b), FromSlice([]float64{5, 7, 9}, 3), 0) {
		t.Fatal("Add wrong")
	}
	if !AllClose(Sub(b, a), FromSlice([]float64{3, 3, 3}, 3), 0) {
		t.Fatal("Sub wrong")
	}
	if !AllClose(Mul(a, b), FromSlice([]float64{4, 10, 18}, 3), 0) {
		t.Fatal("Mul wrong")
	}
	if !AllClose(Scale(a, 2), FromSlice([]float64{2, 4, 6}, 3), 0) {
		t.Fatal("Scale wrong")
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 20}, 2)
	got := AddRowVector(a, v)
	want := FromSlice([]float64{11, 22, 13, 24}, 2, 2)
	if !AllClose(got, want, 0) {
		t.Fatalf("AddRowVector = %v", got)
	}
}

func TestRowSetRow(t *testing.T) {
	a := New(3, 2)
	a.SetRow(1, FromSlice([]float64{5, 6}, 2))
	if !AllClose(a.Row(1), FromSlice([]float64{5, 6}, 2), 0) {
		t.Fatal("Row/SetRow round trip failed")
	}
	if a.At(0, 0) != 0 || a.At(2, 1) != 0 {
		t.Fatal("SetRow touched other rows")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{-1, 4, 2, 3}, 4)
	if a.Sum() != 8 || a.Mean() != 2 || a.Max() != 4 || a.Min() != -1 {
		t.Fatalf("reductions wrong: sum=%v mean=%v max=%v min=%v", a.Sum(), a.Mean(), a.Max(), a.Min())
	}
}

func TestMSEAndNorm(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	if got := MSE(a, b); got != 4 {
		t.Fatalf("MSE = %v, want 4", got)
	}
	if got := FromSlice([]float64{3, 4}, 2).Norm2(); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestXavierRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := Xavier(rng, 10, 20, 10, 20)
	limit := math.Sqrt(6.0 / 30.0)
	if w.Max() > limit || w.Min() < -limit {
		t.Fatalf("Xavier out of range [%v, %v]: max=%v min=%v", -limit, limit, w.Min(), w.Max())
	}
	if w.Max() < limit*0.5 {
		t.Fatal("Xavier suspiciously narrow; init likely wrong")
	}
}

func TestSolveHandComputed(t *testing.T) {
	a := FromSlice([]float64{2, 1, 1, 3}, 2, 2)
	b := FromSlice([]float64{3, 5}, 2)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromSlice([]float64{0.8, 1.4}, 2)
	if !AllClose(x, want, 1e-10) {
		t.Fatalf("Solve = %v, want %v", x, want)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromSlice([]float64{1, 2, 2, 4}, 2, 2)
	if _, err := Solve(a, FromSlice([]float64{1, 2}, 2)); err == nil {
		t.Fatal("Solve on singular matrix returned no error")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a pivot swap.
	a := FromSlice([]float64{0, 1, 1, 0}, 2, 2)
	x, err := Solve(a, FromSlice([]float64{2, 3}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(x, FromSlice([]float64{3, 2}, 2), 1e-12) {
		t.Fatalf("Solve with pivoting = %v", x)
	}
}

func TestRidgeRecoversLinearMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wTrue := Randn(rng, 1, 3, 2)
	x := Randn(rng, 1, 50, 3)
	y := MatMul(x, wTrue)
	w, err := Ridge(x, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(w, wTrue, 1e-6) {
		t.Fatalf("Ridge failed to recover exact linear map:\n got %v\nwant %v", w, wTrue)
	}
}

func TestRidgeRegularizationShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := Randn(rng, 1, 20, 4)
	y := Randn(rng, 1, 20, 1)
	wSmall, err := Ridge(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	wBig, err := Ridge(x, y, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if wBig.Norm2() >= wSmall.Norm2() {
		t.Fatalf("large lambda did not shrink weights: %v >= %v", wBig.Norm2(), wSmall.Norm2())
	}
}

// Property-based tests.

func TestQuickAddCommutative(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), raw...), len(raw))
		b := FromSlice(reversed(raw), len(raw))
		return AllClose(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScaleDistributesOverAdd(t *testing.T) {
	f := func(raw []float64, s float64) bool {
		if len(raw) == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		if math.Abs(s) > 1e100 {
			return true
		}
		a := FromSlice(append([]float64(nil), raw...), len(raw))
		b := FromSlice(reversed(raw), len(raw))
		lhs := Scale(Add(a, b), s)
		rhs := Add(Scale(a, s), Scale(b, s))
		tol := 1e-9 * (1 + math.Abs(s)) * (1 + a.Norm2() + b.Norm2())
		return AllClose(lhs, rhs, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposePreservesMatMul(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		if !AllClose(lhs, rhs, 1e-10) {
			t.Fatalf("(AB)ᵀ != BᵀAᵀ for %dx%dx%d", m, k, n)
		}
	}
}

func reversed(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[len(v)-1-i] = x
	}
	return out
}
