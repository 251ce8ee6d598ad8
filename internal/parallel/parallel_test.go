package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 97, 1024} {
			for _, grain := range []int{0, 1, 7, 64, 5000} {
				hits := make([]int32, n)
				ForWorkers(workers, n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForChunkBoundariesIndependentOfWorkers(t *testing.T) {
	// The chunk set must depend only on (n, grain): record the chunks seen
	// at several worker counts and compare.
	n, grain := 103, 10
	collect := func(workers int) map[[2]int]bool {
		set := make(map[[2]int]bool)
		ch := make(chan [2]int, 64)
		done := make(chan struct{})
		go func() {
			for c := range ch {
				set[c] = true
			}
			close(done)
		}()
		ForWorkers(workers, n, grain, func(lo, hi int) { ch <- [2]int{lo, hi} })
		close(ch)
		<-done
		return set
	}
	serial := collect(1)
	// Serial fallback is one chunk [0, n); parallel runs split by grain. The
	// guarantee is not identical chunking but identical results under the
	// contract, so check the parallel chunking tiles [0, n) on grain
	// boundaries.
	if len(serial) != 1 {
		t.Fatalf("serial fallback should be one chunk, got %d", len(serial))
	}
	par := collect(4)
	want := (n + grain - 1) / grain
	if len(par) != want {
		t.Fatalf("parallel chunks = %d, want %d", len(par), want)
	}
	for c := range par {
		if c[0]%grain != 0 || (c[1] != c[0]+grain && c[1] != n) {
			t.Fatalf("chunk %v not on grain boundary", c)
		}
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		var count atomic.Int64
		fns := make([]func(), 17)
		for i := range fns {
			fns[i] = func() { count.Add(1) }
		}
		if err := RunCtx(context.Background(), workers, fns...); err != nil {
			t.Fatal(err)
		}
		if count.Load() != 17 {
			t.Fatalf("workers=%d: ran %d of 17 tasks", workers, count.Load())
		}
	}
}

func TestRunPreservesIndexedResults(t *testing.T) {
	out := make([]int, 50)
	fns := make([]func(), len(out))
	for i := range fns {
		i := i
		fns[i] = func() { out[i] = i * i }
	}
	if err := RunCtx(context.Background(), 4, fns...); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestSetWorkersAndResolve(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	if Resolve(0) != 3 {
		t.Fatalf("Resolve(0) = %d, want 3", Resolve(0))
	}
	if Resolve(7) != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", Resolve(7))
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetWorkers(0) should reset to GOMAXPROCS, got %d", Workers())
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	// An outer fan-out whose tasks themselves run parallel loops must
	// complete: the pool spawns helpers instead of waiting on fixed
	// capacity.
	var total atomic.Int64
	ForWorkers(4, 8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ForWorkers(4, 1000, 10, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 8000 {
		t.Fatalf("nested total = %d, want 8000", total.Load())
	}
}
