package tensor

import "sync"

// This file implements Region, the private bump allocator behind one autodiff
// tape. A single goroutine writes each tape, only the tape allocates its
// tensors, and it frees all of them at once — so a region needs no lock, no
// per-tensor free, and no size classes: it carves tensors from its chunks in
// order and rewinds to the first chunk on Reset.
//
// Layout. Float data comes from chunks borrowed from the chunk pool (arena.go);
// tensor headers, with inline room for their shape and strides, come from a
// slab of header blocks that recycle through a process-wide sync.Pool. The
// region keeps every chunk and block across Reset, so a loop that records the
// same tape shape every pass carves from memory it already holds and takes no
// new chunk after the first pass.
//
// Contracts:
//   - Zero on carve: every tensor handed out is all zeros, exactly like New.
//   - Every carved Data slice is capacity-limited, so an append reallocates
//     instead of overwriting the next tensor.
//   - A reused header that was marked packable is unmarked and its version
//     bumped, never reset, so the pack cache cannot match a stale
//     (pointer, version) pair.
//   - With pooling off (SetPooling(false)) Alloc returns a fresh New tensor:
//     the oracle the equivalence tests compare against.

// minChunk and maxChunk bound the float chunks a region borrows. A region's
// first chunk is small, so the many fork children of a tape stay cheap; each
// further chunk doubles up to maxChunk. A carve larger than that gets a chunk
// of its own size.
const minChunk, maxChunk = 1 << 10, 1 << 16

// header is a carved tensor header with inline room for the shape and
// strides of every rank up to 4 (the repository's tensors have rank ≤ 3).
type header struct {
	Tensor
	dims [8]int
}

// headBlock is the unit the header slab grows by.
type headBlock [64]header

// headBlocks recycles header blocks across regions. A block is never zeroed:
// Alloc overwrites every header field except the packable mark and version.
var headBlocks = sync.Pool{New: func() any { return new(headBlock) }}

// Region is a lock-free bump allocator of tensors owned by one goroutine at a
// time. The zero value is an empty region ready for use.
type Region struct {
	data  slab[float64]
	heads slab[header]
	// hits and misses count carves since the last flush into Default.
	hits, misses uint64
}

// slab hands out runs of entries from blocks it retains across reset.
type slab[T any] struct {
	blocks [][]T
	bi     int // block being carved
	used   int // entries of blocks[bi] handed out
}

// next carves n entries from the retained blocks, moving past any block too
// small for the rest of the request, or returns nil when no block fits.
func (s *slab[T]) next(n int) []T {
	for ; s.bi < len(s.blocks); s.bi, s.used = s.bi+1, 0 {
		if b := s.blocks[s.bi]; s.used+n <= len(b) {
			out := b[s.used : s.used+n : s.used+n]
			s.used += n
			return out
		}
	}
	return nil
}

// add appends block b and carves its first n entries.
func (s *slab[T]) add(b []T, n int) []T {
	s.blocks = append(s.blocks, b)
	s.bi, s.used = len(s.blocks)-1, n
	return b[:n:n]
}

func (s *slab[T]) reset() { s.bi, s.used = 0, 0 }

// Alloc returns a zero-filled tensor of the given shape carved from the
// region. It stays valid until the region's next Reset or Release.
func (r *Region) Alloc(shape ...int) *Tensor {
	n := checkShape(shape)
	if Default.off.Load() {
		return New(shape...)
	}
	data := r.data.next(n)
	if data == nil {
		size := minChunk
		if k := len(r.data.blocks); k > 0 {
			size = min(2*len(r.data.blocks[k-1]), maxChunk)
		}
		data = r.data.add(Default.take(max(size, n)), n)
		r.misses++
	} else {
		r.hits++
	}
	clear(data)

	hs := r.heads.next(1)
	if hs == nil {
		hs = r.heads.add(headBlocks.Get().(*headBlock)[:], 1)
	}
	h := &hs[0]
	t := &h.Tensor
	if t.packable {
		t.packable = false
		t.version++
	}
	rank := len(shape)
	dims := h.dims[:]
	if 2*rank > len(dims) {
		dims = make([]int, 2*rank)
	}
	t.shape = dims[:rank:rank]
	copy(t.shape, shape)
	t.strides = dims[rank : 2*rank : 2*rank]
	s := 1
	for i := rank - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= shape[i]
	}
	t.Data = data
	return t
}

// AllocLike is Alloc with t's shape.
func (r *Region) AllocLike(t *Tensor) *Tensor { return r.Alloc(t.shape...) }

// Reset rewinds the region: every tensor it handed out is invalid afterwards,
// and the next carves reuse the same chunks and headers. It also adds the
// region's counts into Default.
func (r *Region) Reset() {
	r.data.reset()
	r.heads.reset()
	r.flush()
}

// Release resets the region and returns its chunks and header blocks to their
// pools, leaving an empty region that starts cold.
func (r *Region) Release() {
	r.flush()
	for _, c := range r.data.blocks {
		Default.put(c)
	}
	for _, b := range r.heads.blocks {
		headBlocks.Put((*headBlock)(b))
	}
	*r = Region{}
}

func (r *Region) flush() {
	Default.hits.Add(r.hits)
	Default.misses.Add(r.misses)
	r.hits, r.misses = 0, 0
}
