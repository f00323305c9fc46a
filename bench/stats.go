package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics. +Inf samples (failed
// operations) sort last, so a tail that reaches them reads +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// fastEnd is the percentile of per-unit wall times the simulations
// report. On a shared host the memory-bound simulation runs in
// alternating fast and slow spells about 1.6x apart, each from a tenth of
// a second to several seconds long. Over 10 runs of 20 s, the median of
// 20-30 ms units, which falls between the two spells, spread by 11-27%
// (IQR over median), while the 5th percentile spread by 3-6%.
const fastEnd = 5

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so spreads computed here match those computed from the same values
// in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(s) == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
