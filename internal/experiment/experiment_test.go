package experiment

import (
	"context"
	"strings"
	"testing"

	"ovs/internal/dataset"
	"ovs/internal/metrics"
)

// microScale cuts every knob to the bone so the full harness can be
// exercised in seconds. Orderings are NOT asserted at this scale — only
// structure, determinism and plumbing.
func microScale() Scale {
	return Scale{
		Samples:   4,
		V2SEpochs: 5, T2VEpochs: 4, FitEpochs: 15,
		ODPairs:  4,
		TODScale: 0.8, GTScale: 0.6,
		Intervals: 4, IntervalSec: 180,
		GravityCandidates: 3,
		GeneticPopulation: 4, GeneticGenerations: 2,
		GLSTrainEpochs: 8, GLSFitEpochs: 15,
		EMIterations: 3,
		NNEpochs:     10,
		LSTMEpochs:   8,
	}
}

func TestRenderTable(t *testing.T) {
	out := renderTable([][]string{
		{"Method", "TOD"},
		{"OVS", "7.83"},
		{"LSTM", "28.51"},
	})
	if !strings.Contains(out, "OVS") || !strings.Contains(out, "28.51") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if renderTable(nil) != "" {
		t.Fatal("empty table should render empty")
	}
}

func TestSparkline(t *testing.T) {
	s := sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	flat := sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
	if sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
}

func TestNewEnvStructureAndDeterminism(t *testing.T) {
	sc := microScale()
	city := dataset.SyntheticGrid(sc.ODPairs, 7)
	env, err := NewEnv(context.Background(), city, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Samples) != sc.Samples {
		t.Fatalf("samples = %d", len(env.Samples))
	}
	if env.GT.Speed.Dim(0) != city.Net.NumLinks() || env.GT.Speed.Dim(1) != sc.Intervals {
		t.Fatalf("GT speed shape %v", env.GT.Speed.Shape())
	}
	if env.MaxTrips() <= 0 {
		t.Fatal("MaxTrips must be positive")
	}
	city2 := dataset.SyntheticGrid(sc.ODPairs, 7)
	env2, err := NewEnv(context.Background(), city2, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range env.Samples {
		if env.Samples[i].Speed.Data[0] != env2.Samples[i].Speed.Data[0] {
			t.Fatal("env generation not deterministic")
		}
	}
}

func TestNewSyntheticEnvUsesPattern(t *testing.T) {
	sc := microScale()
	envInc, err := NewSyntheticEnv(context.Background(), dataset.PatternIncreasing, sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := envInc.GT.G
	// Column means must increase for the Increasing pattern.
	first, last := 0.0, 0.0
	for i := 0; i < g.Dim(0); i++ {
		first += g.At(i, 0)
		last += g.At(i, g.Dim(1)-1)
	}
	if last <= first {
		t.Fatalf("Increasing GT does not increase: %v -> %v", first, last)
	}
}

func TestRunComparisonStructure(t *testing.T) {
	sc := microScale()
	env, err := NewSyntheticEnv(context.Background(), dataset.PatternGaussian, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunComparison(context.Background(), env, "Gaussian")
	if err != nil {
		t.Fatal(err)
	}
	wantMethods := map[string]bool{"Gravity": true, "Genetic": true, "GLS": true, "EM": true, "NN": true, "LSTM": true, "OVS": true}
	if len(res.Rows) != len(wantMethods) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(wantMethods))
	}
	for _, r := range res.Rows {
		if !wantMethods[r.Method] {
			t.Fatalf("unexpected method %q", r.Method)
		}
		if r.Metrics.TOD <= 0 || r.Metrics.Volume < 0 || r.Metrics.Speed < 0 {
			t.Fatalf("%s: non-positive metrics %+v", r.Method, r.Metrics)
		}
	}
	if _, ok := res.OVSRow(); !ok {
		t.Fatal("OVS row missing")
	}
	if res.BestBaseline(func(tr metrics.Triple) float64 { return tr.TOD }) <= 0 {
		t.Fatal("best baseline TOD must be positive")
	}
	rendered := RenderComparison("Table (test)", []*ComparisonResult{res})
	for m := range wantMethods {
		if !strings.Contains(rendered, m) {
			t.Fatalf("render missing %q:\n%s", m, rendered)
		}
	}
	if !strings.Contains(rendered, "Improve") {
		t.Fatal("render missing Improve row")
	}
}

func TestRunAblationStructure(t *testing.T) {
	res, err := RunAblation(context.Background(), microScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("ablation rows = %d, want 4", len(res.Rows))
	}
	if res.Rows[0].Variant.String() != "OVS" {
		t.Fatalf("first row %q, want OVS", res.Rows[0].Variant)
	}
	out := res.Render()
	for _, label := range []string{"OVS - TOD", "OVS - TOD2V", "OVS - V2S"} {
		if !strings.Contains(out, label) {
			t.Fatalf("ablation render missing %q", label)
		}
	}
}

func TestRunScalabilityStructure(t *testing.T) {
	sc := microScale()
	res, err := RunScalability(context.Background(), sc, []int{9, 16}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Intersections >= res.Rows[1].Intersections {
		t.Fatal("sizes not increasing")
	}
	for _, r := range res.Rows {
		if r.Elapsed <= 0 {
			t.Fatalf("non-positive elapsed for %s", r.Dataset)
		}
	}
	if !strings.Contains(res.Render(), "Figure 9") {
		t.Fatal("render missing title")
	}
}

func TestRunCensusConstraintStructure(t *testing.T) {
	sc := microScale()
	sc.ODPairs = 12 // need several residential origins
	res, err := RunCensusConstraint(context.Background(), sc, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	for _, r := range res.Reports {
		if r.Target != 100 {
			t.Fatalf("target = %v, want 100", r.Target)
		}
		if r.SumPlain <= 0 || r.SumWithAux <= 0 {
			t.Fatalf("degenerate sums: %+v", r)
		}
	}
	if !strings.Contains(res.Render(), "census") {
		t.Fatal("render missing census")
	}
}

func TestRunRoadWorkStructure(t *testing.T) {
	res, err := RunRoadWork(context.Background(), microScale(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.OVSDivergence < 0 || res.LSTMDivergence < 0 {
		t.Fatalf("negative divergence: %+v", res)
	}
	if res.OVSDivergence == 0 {
		t.Fatal("OVS divergence exactly zero is suspicious (identical fits?)")
	}
	if !strings.Contains(res.Render(), "road-work") {
		t.Fatal("render missing title")
	}
}

func TestRunCaseStudy2Structure(t *testing.T) {
	sc := microScale()
	res, err := RunCaseStudy2(context.Background(), sc, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SpeedRMSE) != 7 {
		t.Fatalf("methods = %d, want 7", len(res.SpeedRMSE))
	}
	for _, label := range []string{"O1->Stadium", "O2->Stadium", "O3->Stadium"} {
		if len(res.Recovered[label]) != res.Hours[len(res.Hours)-1]-res.Hours[0]+1 {
			t.Fatalf("series length mismatch for %q", label)
		}
		if _, err := res.PeakHour(label); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := res.PeakHour("nope"); err == nil {
		t.Fatal("unknown label did not error")
	}
	out := res.Render()
	if !strings.Contains(out, "RMSE_speed") || !strings.Contains(out, "O1->Stadium") {
		t.Fatalf("case study render incomplete:\n%s", out)
	}
}

func TestScalePresets(t *testing.T) {
	for _, sc := range []Scale{TestScale(), QuickScale(), FullScale()} {
		if sc.Samples <= 0 || sc.Intervals <= 0 || sc.FitEpochs <= 0 {
			t.Fatalf("invalid scale preset: %+v", sc)
		}
	}
	if FullScale().Samples <= QuickScale().Samples {
		t.Fatal("FullScale should be larger than QuickScale")
	}
	for name, want := range map[string]Scale{"test": TestScale(), "quick": QuickScale(), "full": FullScale()} {
		if got, err := ScaleByName(name); err != nil || got != want {
			t.Fatalf("ScaleByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("ScaleByName accepted an unknown name")
	}
}

func TestRunRouteChoiceStructure(t *testing.T) {
	res, err := RunRouteChoice(context.Background(), microScale(), 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []struct {
		name string
		v    float64
	}{
		{"k1 TOD", res.K1.TOD}, {"k2 TOD", res.K2.TOD},
		{"k1 speed", res.K1.Speed}, {"k2 speed", res.K2.Speed},
	} {
		if tr.v <= 0 {
			t.Fatalf("%s = %v, want > 0", tr.name, tr.v)
		}
	}
	if !strings.Contains(res.Render(), "route-choice") {
		t.Fatal("render missing title")
	}
}

func TestRunEngineCrossStructure(t *testing.T) {
	res, err := RunEngineCross(context.Background(), microScale(), 29)
	if err != nil {
		t.Fatal(err)
	}
	if res.MesoMeso.TOD <= 0 || res.MesoMicro.TOD <= 0 {
		t.Fatalf("degenerate cross-engine result: %+v", res)
	}
	if !strings.Contains(res.Render(), "cross-engine") {
		t.Fatal("render missing title")
	}
}

func TestCaseScaleFallback(t *testing.T) {
	sc := Scale{GTScale: 0.7}
	if caseScale(sc) != 0.7 {
		t.Fatalf("caseScale fallback = %v", caseScale(sc))
	}
	sc.CaseDemandScale = 2.5
	if caseScale(sc) != 2.5 {
		t.Fatalf("caseScale = %v", caseScale(sc))
	}
}

func TestRunNoiseRobustnessStructure(t *testing.T) {
	res, err := RunNoiseRobustness(context.Background(), microScale(), []float64{0, 1.5}, 37)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].NoiseStd != 0 || res.Rows[1].NoiseStd != 1.5 {
		t.Fatalf("levels wrong: %+v", res.Rows)
	}
	for _, r := range res.Rows {
		if r.TOD <= 0 {
			t.Fatalf("degenerate RMSE at σ=%v", r.NoiseStd)
		}
	}
	if res.Degradation() <= 0 {
		t.Fatal("degradation must be positive")
	}
	if !strings.Contains(res.Render(), "noise") {
		t.Fatal("render missing title")
	}
}
