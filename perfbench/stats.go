package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks (NumPy's default rule). xs is not modified. It returns NaN
// for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// topPercentiles is the ladder the distribution summary climbs: it reports
// the highest rung that still has at least minBeyond samples above it, so a
// tail figure is never read off a handful of points.
var topPercentiles = []float64{99.9, 99, 90, 75, 50}

const minBeyond = 10

// dist summarises a timing distribution: its median, the highest percentile
// with at least minBeyond samples beyond it (the median when there are too
// few samples for any higher rung), and the sample count.
type dist struct {
	P50    float64
	Top    float64
	TopPct float64
	N      int
}

func summarize(xs []float64) dist {
	d := dist{P50: median(xs), Top: median(xs), TopPct: 50, N: len(xs)}
	for _, p := range topPercentiles {
		// The tolerance absorbs rounding in (100-p)/100, e.g. 100 samples
		// leave exactly ten beyond p90.
		if float64(len(xs))*(100-p)/100 >= minBeyond-1e-9 {
			d.Top, d.TopPct = quantile(xs, p/100), p
			break
		}
	}
	return d
}

// ratio returns num/den, or 0 when den is not positive (a stage that did no
// work has no hit ratio or efficiency to report).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
