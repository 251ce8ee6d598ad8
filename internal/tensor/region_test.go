package tensor

import (
	"testing"
)

// dirty fills every element of t with a non-zero tag.
func dirty(t *Tensor, tag float64) {
	for i := range t.Data {
		t.Data[i] = tag
	}
}

// TestRegionZeroOnCarveAfterReuse: tensors carved after Reset reuse the same
// memory yet are all zeros, whatever shapes the previous pass carved there.
func TestRegionZeroOnCarveAfterReuse(t *testing.T) {
	var r Region
	defer r.Release()
	a := r.Alloc(3, 7)
	b := r.Alloc(5)
	dirty(a, 1)
	dirty(b, 2)
	first := &a.Data[0]
	r.Reset()
	c := r.Alloc(26) // spans both previous carves
	if &c.Data[0] != first {
		t.Fatal("carve after Reset did not reuse the region's memory")
	}
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("carve after Reset not zeroed at %d: %v", i, v)
		}
	}
	if c.Rank() != 1 || c.Dim(0) != 26 {
		t.Fatalf("reused header has shape %v, want [26]", c.Shape())
	}
}

// TestRegionCarveCapacityLimited: an append to a carved tensor's Data must
// reallocate rather than write into the next tensor of the chunk.
func TestRegionCarveCapacityLimited(t *testing.T) {
	var r Region
	defer r.Release()
	a := r.Alloc(4)
	b := r.Alloc(4)
	if cap(a.Data) != len(a.Data) || cap(b.Data) != len(b.Data) {
		t.Fatalf("carved capacities %d/%d exceed lengths %d/%d", cap(a.Data), cap(b.Data), len(a.Data), len(b.Data))
	}
	grown := append(a.Data, 42)
	if &grown[0] == &a.Data[0] {
		t.Fatal("append to a carved tensor grew in place")
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("append to the previous carve overwrote the next tensor at %d: %v", i, v)
		}
	}
	// The inline shape and stride slices are capacity-limited too.
	if cap(a.shape) != len(a.shape) || cap(a.strides) != len(a.strides) {
		t.Fatal("carved shape/stride slices are not capacity-limited")
	}
}

// TestRegionReusedPackableHeaderBumpsVersion: a header marked packable in a
// previous pass comes back unmarked with a moved version, so a pack-cache
// entry keyed to its previous life can never match.
func TestRegionReusedPackableHeaderBumpsVersion(t *testing.T) {
	var r Region
	defer r.Release()
	a := r.Alloc(16, 16)
	a.MarkPackable()
	a.NoteMutation()
	v := a.version
	r.Reset()
	b := r.Alloc(16, 16)
	if b != a {
		t.Fatal("Reset did not reuse the header")
	}
	if b.packable {
		t.Fatal("reused header still packable")
	}
	if b.version <= v {
		t.Fatalf("reused header version %d did not move past %d", b.version, v)
	}
}

// TestRegionCarveLargerThanChunk: a carve beyond the chunk cap gets a chunk
// of its own, and small carves keep working around it.
func TestRegionCarveLargerThanChunk(t *testing.T) {
	var r Region
	defer r.Release()
	small := r.Alloc(3)
	big := r.Alloc(maxChunk + 5)
	after := r.Alloc(2)
	if len(big.Data) != maxChunk+5 {
		t.Fatalf("big carve has %d elements, want %d", len(big.Data), maxChunk+5)
	}
	dirty(small, 1)
	dirty(big, 2)
	dirty(after, 3)
	if small.Data[0] != 1 || big.Data[0] != 2 || big.Data[maxChunk+4] != 2 || after.Data[1] != 3 {
		t.Fatal("carves around a chunk-sized tensor overlap")
	}
	r.Reset()
	before := Default.Stats()
	r.Alloc(3)
	again := r.Alloc(maxChunk + 5)
	r.Alloc(2)
	for _, v := range again.Data {
		if v != 0 {
			t.Fatal("big carve after Reset not zeroed")
		}
	}
	r.Reset()
	if d := Default.Stats().Misses - before.Misses; d != 0 {
		t.Fatalf("identical pass after Reset took %d new chunks, want 0", d)
	}
}

// TestRegionReleaseReturnsChunks: Release hands the region's chunks to the
// pool, and the region starts cold again.
func TestRegionReleaseReturnsChunks(t *testing.T) {
	if Default.off.Load() {
		t.Fatal("pooling unexpectedly disabled")
	}
	var r Region
	x := r.Alloc(minChunk)
	y := r.Alloc(3) // needs a second chunk
	chunks := []*float64{&x.Data[0], &y.Data[0]}
	r.Release()
	if len(r.data.blocks) != 0 || len(r.heads.blocks) != 0 {
		t.Fatal("Release left chunks or header blocks in the region")
	}
	Default.mu.Lock()
	for _, want := range chunks {
		found := false
		for _, c := range Default.free {
			if &c[0] == want {
				found = true
			}
		}
		if !found {
			t.Error("a released chunk is not in the pool")
		}
	}
	Default.mu.Unlock()
	before := Default.Stats()
	r.Alloc(1)
	r.Release()
	if d := Default.Stats().Misses - before.Misses; d != 1 {
		t.Fatalf("first carve after Release counted %d misses, want 1", d)
	}
}
