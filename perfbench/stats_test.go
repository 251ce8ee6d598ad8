package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		q, want float64
	}{{0, 1}, {0.25, 2}, {0.5, 3}, {0.6, 3.4}, {1, 5}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 || xs[1] != 1 {
		t.Errorf("quantile sorted its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestSummarizePicksTopPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.TopPct != tc.wantPct {
			t.Errorf("n=%d: got n=%d top=p%g, want p%g", tc.n, d.N, d.TopPct, tc.wantPct)
		}
		if beyond := float64(tc.n) * (100 - d.TopPct) / 100; tc.n >= 20 && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: p%g has only %g samples beyond it", tc.n, d.TopPct, beyond)
		}
		if d.Top < d.P50 {
			t.Errorf("n=%d: top %v below median %v", tc.n, d.Top, d.P50)
		}
	}
	if d := summarize(seq(100)); d.P50 != 50.5 || math.Abs(d.Top-90.1) > 1e-9 {
		t.Errorf("summarize(1..100) = %+v, want p50 50.5 and p90 90.1", d)
	}
}

func TestMediansPerColumn(t *testing.T) {
	got := medians([]map[string]float64{{"a": 1, "b": 10}, {"a": 3, "b": 30}, {"a": 2, "b": 20}})
	if got["a"] != 2 || got["b"] != 20 || len(got) != 2 {
		t.Errorf("medians = %v", got)
	}
}

func TestNameCharset(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.run_ms.p50", "tensor.packcache.hit_ratio.fit", "9x", "a-b"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a:b", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"s", "ms", "1/s", "%", "m/s", "count", "MB"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", "seconds-per-operation", "µs"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || !validUnit(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric definition %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range specs() {
		if !validName(w.Name) {
			t.Errorf("bad workload name %q", w.Name)
		}
	}
}

// validName reports whether s is a legal metric or workload name: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.' and
// '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || r != '_' && r != '.' && r != '-') {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters, digits,
// '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && r != '_' && r != '/' && r != '%' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}
