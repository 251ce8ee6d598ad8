package tensor

import (
	"sync"
	"sync/atomic"
)

// This file implements the process-wide chunk pool behind every recycled
// float64 buffer: the bump regions that back the autodiff tapes (region.go),
// the blocked GEMM's packing and accumulate scratch, and the pack cache's
// entry buffers. The pool trades whole chunks, so its lock is taken once per
// chunk a region grows by or a GEMM call borrows, never once per tensor.
//
// Determinism rule: pooled memory is never visible to a computation before
// it is overwritten or zeroed — regions zero every tensor they carve, and the
// in-package borrowers write every element they later read — so a pooled
// buffer is indistinguishable from a fresh one and every kernel produces
// bitwise-identical results with pooling on or off, at any worker count.

// ArenaStats is a snapshot of the tensor-allocation counters.
type ArenaStats struct {
	// Hits counts tensors carved from memory a region already held.
	Hits uint64
	// Misses counts carves that needed a new chunk. Hits + Misses is the
	// number of tensors the regions handed out.
	Misses uint64
	// Discards counts chunks dropped instead of pooled because pooling was
	// disabled.
	Discards uint64
}

// ChunkPool is a concurrency-safe free list of float64 chunks, kept sorted by
// capacity and served best-fit. It also accumulates the allocation counters
// the regions flush into it. The zero value is an empty pool with pooling
// enabled.
type ChunkPool struct {
	off                    atomic.Bool
	hits, misses, discards atomic.Uint64

	mu   sync.Mutex
	free [][]float64 // ascending capacity
}

// take returns a chunk of length n. Its contents are unspecified: callers
// zero or overwrite it before reading. A pooled chunk serves the request only
// when its capacity is within twice n, so a small borrower never pins a large
// chunk another caller could use.
func (p *ChunkPool) take(n int) []float64 {
	if !p.off.Load() {
		p.mu.Lock()
		lo, hi := 0, len(p.free)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cap(p.free[mid]) < n {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(p.free) && cap(p.free[lo]) <= 2*n {
			c := p.free[lo]
			last := len(p.free) - 1
			copy(p.free[lo:], p.free[lo+1:])
			p.free[last] = nil
			p.free = p.free[:last]
			p.mu.Unlock()
			return c[:n]
		}
		p.mu.Unlock()
	}
	return make([]float64, n)
}

// put returns a chunk to the pool. The caller must be its sole owner: the
// chunk, and every tensor carved from it, must not be used afterwards.
func (p *ChunkPool) put(c []float64) {
	if p.off.Load() {
		p.discards.Add(1)
		return
	}
	c = c[:cap(c)]
	p.mu.Lock()
	i := len(p.free)
	for i > 0 && cap(p.free[i-1]) > len(c) {
		i--
	}
	p.free = append(p.free, nil)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = c
	p.mu.Unlock()
}

// Stats returns a snapshot of the allocation counters.
func (p *ChunkPool) Stats() ArenaStats {
	return ArenaStats{
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Discards: p.discards.Load(),
	}
}

// SetEnabled switches pooling on or off. Disabling drains the free list, so
// a disabled pool holds no memory, regions hand out fresh tensors, and every
// borrower allocates.
func (p *ChunkPool) SetEnabled(on bool) {
	p.off.Store(!on)
	if !on {
		p.mu.Lock()
		clear(p.free)
		p.free = p.free[:0]
		p.mu.Unlock()
	}
}

// Default is the process-wide chunk pool. Pooling is on by default;
// SetPooling(false) reverts every hot loop to fresh allocations (the
// equivalence tests and benchmarks compare both modes).
var Default = &ChunkPool{}

// SetPooling toggles the default pool.
func SetPooling(on bool) { Default.SetEnabled(on) }
