package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of values by linear
// interpolation between the two nearest ranks; 0 for no values. It sorts
// a copy.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// samplesBeyond is how many of n samples lie above the q-quantile: the
// count that decides whether a percentile is worth reporting.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// ratio is a/b, 0 when b is 0: per-layer counters are legitimately zero on
// workloads that bypass their layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
