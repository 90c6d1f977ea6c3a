package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0 to 100) of xs, linearly
// interpolated between the closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailCandidates are the percentiles a latency tail is reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves
// at least minBeyond of n samples above it, or 0 when none does. A
// percentile with fewer samples beyond it is one or two outliers, not
// a tail.
func tailPercentile(n int, candidates []float64, minBeyond int) float64 {
	for _, p := range candidates {
		// Compare in hundredths of a percent so 99.9 is exact.
		beyond := int64(n) * (10000 - int64(math.Round(p*100)))
		if beyond >= int64(minBeyond)*10000 {
			return p
		}
	}
	return 0
}

// supported reports whether the p-th percentile of n samples has at
// least ten samples beyond it.
func supported(n int, p float64) bool {
	return tailPercentile(n, []float64{p}, 10) == p
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
