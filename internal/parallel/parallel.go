// Package parallel provides the deterministic worker-pool primitives behind
// every concurrent path in this repository: row-range loops for the tensor
// kernels and the simulator's per-link updates, and coarse task fan-out for
// the experiment harness and multi-restart fitting.
//
// Determinism is the design constraint, not an afterthought. For splits
// [0, n) into contiguous chunks whose boundaries depend only on (n, grain) —
// never on the worker count or on goroutine scheduling — and each chunk is
// processed serially by exactly one goroutine. A chunk function that writes
// only to its own index range and keeps any reduction inside a single index
// therefore produces bitwise-identical results at every worker count,
// including the exact serial fallback Workers = 1.
//
// The pool is a bounded-width spawning pool rather than a set of persistent
// goroutines: each invocation runs on the calling goroutine plus at most
// workers-1 short-lived helpers. The caller always participates, so nested
// use (an experiment cell fanning out into parallel tensor kernels) can
// never deadlock on pool capacity, and an inner loop simply runs serially
// when its own chunk count does not warrant helpers.
//
// The Ctx variants (ForWorkersCtx, RunCtx) add cooperative cancellation on
// top of the same chunking: cancellation is observed only at chunk
// boundaries, in-flight chunks always finish, and all helpers are joined
// before returning, so a cancelled loop leaves no goroutines behind
// and an uncancelled ForWorkersCtx is bitwise-identical to ForWorkers.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker count used when a caller passes
// workers = 0. It starts at runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// Workers returns the process-wide default worker count.
func Workers() int { return int(defaultWorkers.Load()) }

// SetWorkers sets the process-wide default worker count. n <= 0 resets it
// to runtime.GOMAXPROCS(0); n = 1 forces every default-sized loop serial.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int64(n))
}

// Resolve maps a per-config worker count to an effective one: 0 (unset)
// becomes the process default, anything else is used as given (minimum 1).
func Resolve(workers int) int {
	if workers <= 0 {
		return Workers()
	}
	return workers
}

// For runs fn over [0, n) in contiguous chunks of up to grain indices using
// the default worker count. See ForWorkers for the determinism contract.
func For(n, grain int, fn func(lo, hi int)) { ForWorkers(0, n, grain, fn) }

// ForWorkers runs fn over [0, n) in contiguous chunks of up to grain
// indices, using at most `workers` goroutines (0 = process default, 1 =
// exact serial execution on the calling goroutine).
//
// Contract: fn(lo, hi) must compute each index independently of the chunk
// boundaries — writes go only to the chunk's own output range and
// reductions stay within one index. Under that contract the result is
// bitwise-identical for every worker count.
func ForWorkers(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	workers = Resolve(workers)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ForWorkersCtx is ForWorkers with cooperative cancellation. Cancellation is
// observed only at chunk boundaries: each worker checks ctx before claiming
// its next chunk, a chunk that has started always runs to completion, and
// every helper goroutine is joined before the call returns — a cancelled
// call therefore leaves no workers behind and no chunk half-done. Chunk
// boundaries still depend only on (n, grain), so a call that completes
// without observing cancellation is bitwise-identical to ForWorkers.
//
// The return value is nil when all chunks ran, or the context's cancellation
// cause once cancellation was observed. Which chunks ran before a cancelled
// call stopped is scheduling-dependent; callers must treat the output as
// abandoned when an error is returned.
func ForWorkersCtx(ctx context.Context, workers, n, grain int, fn func(lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	workers = Resolve(workers)
	if workers > chunks {
		workers = chunks
	}
	done := ctx.Done()
	var cancelled atomic.Bool
	var next atomic.Int64
	work := func() {
		for {
			select {
			case <-done:
				cancelled.Store(true)
				return
			default:
			}
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
	}
	if cancelled.Load() {
		return context.Cause(ctx)
	}
	return nil
}

// RunCtx executes the given functions, at most `workers` concurrently (0 =
// process default, 1 = serial in slice order). It is the coarse-grain
// fan-out used for independent experiment cells and fit restarts; each
// function must carry its own random state (derived from the root seed by
// index) so results do not depend on the worker count.
//
// Functions that have started run to completion, no new function starts once
// ctx is cancelled, and the call returns the cancellation cause after all
// in-flight functions have been joined (nil if every function ran).
func RunCtx(ctx context.Context, workers int, fns ...func()) error {
	return ForWorkersCtx(ctx, workers, len(fns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}
