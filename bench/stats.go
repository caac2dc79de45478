package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks, so percentile(xs, 0.5) is the
// median for every sample count. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
