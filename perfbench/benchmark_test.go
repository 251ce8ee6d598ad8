package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step: same names, units and directions, same order.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(specs()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(specs()))
	}
	for i, w := range specs() {
		if i < len(b.Workloads) && b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if b.PerLayer[i] != d {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, b.PerLayer[i], d)
		}
	}
}

// TestPredictionMap checks that the prediction map names only defined
// metrics and workloads, and places every per-layer metric in one row.
func TestPredictionMap(t *testing.T) {
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	type ref struct{ Metric, Workload string }
	var p struct {
		Workloads map[string]string `json:"workloads"`
		Layers    []struct {
			Module             string   `json:"module"`
			Metrics            []string `json:"metrics"`
			ShouldMove         []ref    `json:"should_move"`
			PredictedUnchanged []ref    `json:"predicted_unchanged"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range specs() {
		workloads[w.Name] = true
		if p.Workloads[w.Name] == "" {
			t.Errorf("workload %s has no rationale", w.Name)
		}
	}
	defined := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defined[d.Name] = true
	}
	placed := map[string]int{}
	for _, row := range p.Layers {
		for _, m := range row.Metrics {
			placed[m]++
		}
		for _, r := range append(append([]ref(nil), row.ShouldMove...), row.PredictedUnchanged...) {
			if !defined[r.Metric] || !workloads[r.Workload] {
				t.Errorf("%s: prediction names %s @ %s, which is not defined", row.Module, r.Metric, r.Workload)
			}
		}
	}
	for _, d := range perLayer {
		if placed[d.Name] != 1 {
			t.Errorf("per-layer metric %s appears in %d rows of the prediction map, want 1", d.Name, placed[d.Name])
		}
	}
	for m := range placed {
		if !defined[m] {
			t.Errorf("prediction map lists undefined metric %s", m)
		}
	}
}
