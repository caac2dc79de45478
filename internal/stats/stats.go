// Package stats provides the numerical kit used by the analysis
// pipeline: summary statistics, quantiles, histograms, empirical CDFs
// and the sequence-probability helpers used by the paper's security
// analysis (§III-D).
//
// The package replaces the pandas/NumPy layer of the original study
// with pure-Go equivalents. All functions operate on float64 samples
// and are deterministic.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by computations that require at least one
// sample.
var ErrNoSamples = errors.New("stats: no samples")

// Summary holds the descriptive statistics of a sample set.
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	StdDev float64
	P90    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary over xs. It returns ErrNoSamples when xs
// is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoSamples
	}
	sorted := sortedCopy(xs)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	var sq float64
	for _, x := range sorted {
		d := x - mean
		sq += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(sq / float64(len(sorted)-1))
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Median: quantileSorted(sorted, 0.5),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		StdDev: std,
		P90:    quantileSorted(sorted, 0.90),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}, nil
}

// String renders the summary in a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f median=%.3f p90=%.3f p95=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.Median, s.P90, s.P95, s.P99, s.Min, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It returns ErrNoSamples when xs
// is empty and an error when q is outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	return quantileSorted(sortedCopy(xs), q), nil
}

func sortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// quantileSorted computes the q-quantile assuming xs is sorted and
// non-empty, using the "linear interpolation of the empirical CDF"
// convention (NumPy's default), matching the paper's tooling.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}
