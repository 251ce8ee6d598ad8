package tensor

import (
	"math/rand"
	"runtime"
	"testing"

	"ovs/internal/parallel"
)

// TestArenaReuseHitAndZero checks the allocation counters and the reuse
// contract: a region's second identical pass is served from memory it
// already holds (hits only, no new chunk), fully zeroed, with the requested
// shapes.
func TestArenaReuseHitAndZero(t *testing.T) {
	var r Region
	defer r.Release()
	before := Default.Stats()
	x := r.Alloc(3, 5)
	dirty(x, 7)
	data := &x.Data[0]
	r.Reset()
	mid := Default.Stats()
	if mid.Hits-before.Hits != 0 || mid.Misses-before.Misses != 1 {
		t.Fatalf("first pass counted %d hits, %d misses; want 0, 1", mid.Hits-before.Hits, mid.Misses-before.Misses)
	}

	y := r.Alloc(15) // same footprint, different rank
	if &y.Data[0] != data {
		t.Fatal("carve after Reset did not reuse the region's chunk")
	}
	if y.Rank() != 1 || y.Dim(0) != 15 {
		t.Fatalf("reused tensor has shape %v, want [15]", y.Shape())
	}
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("reused memory not zeroed at %d: %v", i, v)
		}
	}
	r.Reset()
	after := Default.Stats()
	if after.Hits-mid.Hits != 1 || after.Misses-mid.Misses != 0 {
		t.Fatalf("second pass counted %d hits, %d misses; want 1, 0", after.Hits-mid.Hits, after.Misses-mid.Misses)
	}
}

// TestArenaClassCoverage checks the pool's best-fit invariant: a pooled
// chunk serves only requests it covers, and never one less than half its
// size, so a small borrower cannot pin a large chunk.
func TestArenaClassCoverage(t *testing.T) {
	p := &ChunkPool{}
	small := p.take(100)
	small[0] = 1
	p.put(small)
	if big := p.take(300); cap(big) < 300 || &big[0] == &small[0] {
		t.Fatal("a chunk was handed to a request it does not cover")
	}
	tiny := p.take(10) // covered, but would waste 90% of the chunk
	if &tiny[0] == &small[0] {
		t.Fatal("a chunk was handed to a request under half its size")
	}
	got := p.take(70)
	if &got[0] != &small[0] || len(got) != 70 {
		t.Fatal("a covering request within twice the chunk size missed the pooled chunk")
	}

	// Best fit: of two covering chunks the smaller one is served.
	a, b := p.take(64), p.take(80)
	p.put(b)
	p.put(a)
	if c := p.take(60); &c[0] != &a[0] {
		t.Fatal("take did not pick the smallest covering chunk")
	}
}

// TestArenaDisabled checks that disabled pooling degrades to plain
// allocation: regions hand out fresh tensors without chunks or counts, puts
// are discarded, and the free list drains.
func TestArenaDisabled(t *testing.T) {
	p := &ChunkPool{}
	p.put(p.take(8))
	p.SetEnabled(false)
	if n := len(p.free); n != 0 {
		t.Fatalf("disabling left %d pooled chunks", n)
	}
	p.put(p.take(8))
	if st := p.Stats(); st.Discards != 1 {
		t.Fatalf("disabled pool accepted a chunk: %+v", st)
	}

	defer SetPooling(true)
	SetPooling(false)
	var r Region
	before := Default.Stats()
	x := r.Alloc(4, 2)
	if len(r.data.blocks) != 0 {
		t.Fatal("a region took a chunk with pooling disabled")
	}
	if cap(x.Data) != 8 || x.Dim(0) != 4 || x.Dim(1) != 2 {
		t.Fatalf("fresh tensor has shape %v, cap %d", x.Shape(), cap(x.Data))
	}
	r.Reset()
	if st := Default.Stats(); st.Hits != before.Hits || st.Misses != before.Misses {
		t.Fatal("fresh allocations were counted as carves")
	}
}

// TestArenaConcurrentStress runs many regions at once against the shared
// chunk pool, at every worker count, verifying under the race detector that
// the pool is safe and that no two live tensors ever share memory. Each
// region tags its tensors and checks the tags are intact before rewinding —
// a chunk handed to two regions would trip it.
func TestArenaConcurrentStress(t *testing.T) {
	const regions, passes = 16, 6
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		parallel.ForWorkers(w, regions, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tag := float64(i + 1)
				rng := rand.New(rand.NewSource(int64(i)))
				var r Region
				for pass := 0; pass < passes; pass++ {
					var live []*Tensor
					for k := 0; k < 40; k++ {
						var x *Tensor
						switch rng.Intn(3) {
						case 0:
							x = r.Alloc(1 + rng.Intn(64))
						case 1:
							x = r.Alloc(1+rng.Intn(8), 1+rng.Intn(8))
						default:
							x = r.Alloc(1 + rng.Intn(3*minChunk)) // forces growth
						}
						for j, v := range x.Data {
							if v != 0 {
								t.Errorf("carve returned dirty memory at %d: %v", j, v)
								return
							}
							x.Data[j] = tag
						}
						live = append(live, x)
					}
					for _, x := range live {
						for _, v := range x.Data {
							if v != tag {
								t.Errorf("tensor corrupted: got %v, want tag %v", v, tag)
								return
							}
						}
					}
					if pass%2 == 0 {
						r.Reset()
					} else {
						r.Release()
					}
				}
				r.Release()
			}
		})
	}
}
