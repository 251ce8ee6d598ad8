package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ovs/internal/tensor"
)

// TestRunCtxUncancelledMatchesRun: threading a live, cancellable context
// must not perturb the simulation — bitwise-identical tensors to a run under
// context.Background, whose Done channel is nil.
func TestRunCtxUncancelledMatchesRun(t *testing.T) {
	for _, engine := range []Engine{Meso, Micro} {
		net := lineNet()
		d := constDemand(1, 4, 3, []ODNodes{{Origin: 0, Dest: 2}})
		ref, err := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 1, Engine: engine}).RunCtx(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		got, err := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 1, Engine: engine}).RunCtx(ctx, d)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(ref.Volume, got.Volume, 0) || !tensor.AllClose(ref.Speed, got.Speed, 0) {
			t.Fatalf("engine %v: a live context changes the result", engine)
		}
	}
}

// TestRunCtxCancelledStopsAtInterval: a pre-cancelled context aborts both
// engines at the first interval boundary with the cancellation cause wrapped
// in the error.
func TestRunCtxCancelledStopsAtInterval(t *testing.T) {
	for _, engine := range []Engine{Meso, Micro} {
		sentinel := errors.New("deadline budget spent")
		net := lineNet()
		d := constDemand(1, 4, 3, []ODNodes{{Origin: 0, Dest: 2}})
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(sentinel)
		_, err := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 1, Engine: engine}).RunCtx(ctx, d)
		if err == nil {
			t.Fatalf("engine %v: cancelled RunCtx returned nil error", engine)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("engine %v: err = %v, want wrapped cancel cause", engine, err)
		}
		if !strings.Contains(err.Error(), "cancelled at interval") {
			t.Fatalf("engine %v: err %q does not name the interval boundary", engine, err)
		}
	}
}

// TestRunCtxValidatesBeforeCtx: invalid demand reports the validation error
// even under a cancelled context — validation is cheap and its error is the
// more actionable one.
func TestRunCtxValidatesBeforeCtx(t *testing.T) {
	net := lineNet()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bad := Demand{ODs: []ODNodes{{0, 0}}, G: tensor.New(1, 4)}
	_, err := New(net, Config{Intervals: 4, IntervalSec: 300, Seed: 1}).RunCtx(ctx, bad)
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a validation error", err)
	}
}
