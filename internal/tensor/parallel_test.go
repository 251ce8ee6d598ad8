package tensor

import (
	"math/rand"
	"runtime"
	"testing"

	"ovs/internal/parallel"
)

// workerCounts are the settings the GEMM is checked at; 1 is the exact
// serial fallback, the rest exercise real concurrency.
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// withWorkers runs fn under each process-default worker count and hands it
// the result tensors to compare.
func withWorkers(t *testing.T, fn func() *Tensor) {
	t.Helper()
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(1)
	ref := fn()
	for _, w := range workerCounts()[1:] {
		parallel.SetWorkers(w)
		got := fn()
		if !AllClose(got, ref, 0) {
			t.Fatalf("workers=%d: result differs bitwise from workers=1", w)
		}
	}
}

func TestMatMulParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 50×60 · 60×70: large enough for several chunks at small grain, odd
	// sizes to exercise the tail chunk.
	a := RandUniform(rng, -1, 1, 50, 60)
	b := RandUniform(rng, -1, 1, 60, 70)
	withWorkers(t, func() *Tensor { return MatMul(a, b) })
}
