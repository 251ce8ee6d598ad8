package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func spanAt(id, parent int, lo, hi time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Begin: counters{Wall: lo}, End: counters{Wall: hi}}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		spanAt(0, -1, 0, 100*ms),      // op
		spanAt(1, 0, 10*ms, 40*ms),    // child
		spanAt(2, 1, 15*ms, 25*ms),    // grandchild: counted against 1, not 0
		spanAt(3, 0, 50*ms, 90*ms),    // child
		spanAt(4, 3, 55*ms, 70*ms),    // two overlapping children of 3 ...
		spanAt(5, 3, 60*ms, 80*ms),    // ... cover 55..80 once
		spanAt(6, -1, 200*ms, 210*ms), // separate root, no children
	}
	want := []time.Duration{30 * ms, 20 * ms, 10 * ms, 15 * ms, 15 * ms, 20 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecorderNestsSpansAndWritesChromeTrace(t *testing.T) {
	rec := newRecorder()
	rec.traced = true
	rec.run = 7
	ctx := context.Background()
	err := rec.stage(ctx, "outer", func(ctx context.Context) error {
		if err := rec.stage(ctx, "inner", func(context.Context) error { return nil }); err != nil {
			return err
		}
		return rec.stage(ctx, "inner", func(context.Context) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.spans) != 3 || len(rec.open) != 0 {
		t.Fatalf("spans %d, open %d; want 3 and 0", len(rec.spans), len(rec.open))
	}
	for i, wantParent := range []int{-1, 0, 0} {
		s := rec.spans[i]
		if s.Parent != wantParent || s.Run != 7 || s.End.Wall < s.Begin.Wall {
			t.Errorf("span %d = %+v", i, s)
		}
	}
	if s, ok := rec.last(7, "inner"); !ok || s.ID != 2 {
		t.Errorf("last(inner) = %+v, %v; want the second inner span", s, ok)
	}
	raw, err := chromeTrace(rec.spans, map[string]string{"seed": "1"})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.OtherData["seed"] != "1" {
		t.Fatalf("trace = %s", raw)
	}
	outer := doc.TraceEvents[0]
	if outer.Name != "outer" || outer.Ph != "X" || outer.Args["parent"] != float64(-1) || outer.Args["run"] != float64(7) {
		t.Errorf("outer event = %+v", outer)
	}
	if self, ok := outer.Args["self_ms"].(float64); !ok || self*1e3 > outer.Dur+1e-6 {
		t.Errorf("outer self_ms %v exceeds its duration %vµs", outer.Args["self_ms"], outer.Dur)
	}
}
