package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentiles are the percentiles a latency may be reported at, in
// increasing order.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestPercentile applies the reporting rule: the highest percentile
// of tailPercentiles with at least minTail of n samples beyond it. ok is
// false when not even the median qualifies.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(1-c/100) >= minTail-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}
