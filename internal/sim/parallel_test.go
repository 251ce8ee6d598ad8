package sim

import (
	"context"
	"runtime"
	"testing"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// TestMesoWorkerEquivalence checks that the meso engine produces identical
// results for Workers ∈ {1, 2, GOMAXPROCS}: the parallel phases partition
// strictly by link, so the trajectory of every vehicle — and every recorded
// observation — must be bitwise unchanged.
func TestMesoWorkerEquivalence(t *testing.T) {
	// An 8×9 grid has >128 links, so the per-link phases actually split into
	// multiple chunks (linkGrain) and run concurrently for workers > 1.
	net := roadnet.Grid(roadnet.GridConfig{Rows: 8, Cols: 9})
	n := net.NumNodes()
	ods := []ODNodes{{Origin: 0, Dest: n - 1}, {Origin: n - 1, Dest: 0}, {Origin: 8, Dest: n - 9}}
	d := Demand{ODs: ods, G: tensor.Full(4, 3, 3)}

	run := func(workers int) *Result {
		s := New(net, Config{Intervals: 3, IntervalSec: 180, Seed: 7, Workers: workers})
		res, err := s.RunCtx(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if got.Spawned != ref.Spawned || got.Completed != ref.Completed {
			t.Fatalf("workers=%d: vehicle counts differ (%d/%d vs %d/%d)",
				w, got.Spawned, got.Completed, ref.Spawned, ref.Completed)
		}
		if !tensor.AllClose(got.Volume, ref.Volume, 0) {
			t.Fatalf("workers=%d: volume differs from workers=1", w)
		}
		if !tensor.AllClose(got.Speed, ref.Speed, 0) {
			t.Fatalf("workers=%d: speed differs from workers=1", w)
		}
		if !tensor.AllClose(got.Entries, ref.Entries, 0) {
			t.Fatalf("workers=%d: entries differ from workers=1", w)
		}
		if got.TotalTravelSec != ref.TotalTravelSec {
			t.Fatalf("workers=%d: travel time differs from workers=1", w)
		}
	}
}
