package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-width-bin histogram over a half-open range
// [Min, Max). Finite samples below Min are clamped into the first bin
// and samples at or above Max into the last bin, so a histogram never
// drops data (the paper's Fig. 1 x-axis is truncated at 500 ms the
// same way) — but the clamping is no longer silent: Underflow and
// Overflow report how many samples were folded into the edge bins.
// NaN samples are excluded from the bins and the total entirely
// (int(math.Floor(NaN)) used to dump them into the first bin, which
// quietly skewed the low tail) and are reported by NaNs.
type Histogram struct {
	min    float64
	max    float64
	width  float64
	counts []int
	total  int
	nans   int
	under  int
	over   int
}

// NewHistogram creates a histogram with n equal-width bins covering
// [min, max). It returns an error when the range is empty or n < 1.
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: histogram needs >=1 bin, got %d", n)
	}
	if !(max > min) {
		return nil, fmt.Errorf("stats: histogram range [%v,%v) is empty", min, max)
	}
	return &Histogram{
		min:    min,
		max:    max,
		width:  (max - min) / float64(n),
		counts: make([]int, n),
	}, nil
}

// Add records one sample. NaN is counted separately and never enters
// a bin; finite out-of-range samples clamp into the edge bins as
// before, with the fold tallied in Underflow/Overflow.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		h.nans++
		return
	}
	var idx int
	switch {
	case x < h.min:
		// Clamp directly: converting the float quotient would already
		// be negative here, and for -Inf the conversion is undefined.
		h.under++
		idx = 0
	case x >= h.max:
		// Likewise: int(+Inf) is architecture-defined (minimum int on
		// amd64), which used to drop +Inf into the FIRST bin.
		h.over++
		idx = len(h.counts) - 1
	default:
		idx = int(math.Floor((x - h.min) / h.width))
		// Guard float rounding at the edges of an in-range sample.
		if idx < 0 {
			idx = 0
		}
		if idx >= len(h.counts) {
			idx = len(h.counts) - 1
		}
	}
	h.counts[idx]++
	h.total++
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of binned samples (NaN inputs excluded).
func (h *Histogram) Total() int { return h.total }

// NaNs returns the number of NaN samples rejected by Add.
func (h *Histogram) NaNs() int { return h.nans }

// Underflow returns the number of samples below Min that were clamped
// into the first bin.
func (h *Histogram) Underflow() int { return h.under }

// Overflow returns the number of samples at or above Max that were
// clamped into the last bin.
func (h *Histogram) Overflow() int { return h.over }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the raw count of bin i.
func (h *Histogram) Count(i int) int { return h.counts[i] }

// BinStart returns the lower edge of bin i.
func (h *Histogram) BinStart(i int) float64 { return h.min + float64(i)*h.width }

// Density returns the probability mass of bin i (count/total), or 0
// when the histogram is empty.
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// Render draws a textual histogram (one row per bin) sized to width
// characters, matching the presentation style of the paper's Fig. 1.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxDensity := 0.0
	for i := range h.counts {
		if d := h.Density(i); d > maxDensity {
			maxDensity = d
		}
	}
	var b strings.Builder
	for i := range h.counts {
		d := h.Density(i)
		bar := 0
		if maxDensity > 0 {
			bar = int(math.Round(d / maxDensity * float64(width)))
		}
		fmt.Fprintf(&b, "%8.1f-%-8.1f %6.2f%% %s\n",
			h.BinStart(i), h.BinStart(i+1), d*100, strings.Repeat("#", bar))
	}
	return b.String()
}

// ECDF is an empirical cumulative distribution function built from a
// sample set. It answers both directions: P(X <= x) and the
// x-value at a given cumulative probability.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from xs. The input slice is copied.
func NewECDF(xs []float64) *ECDF {
	return &ECDF{sorted: sortedCopy(xs)}
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.sorted) }

// P returns the empirical P(X <= x), i.e. the fraction of samples not
// exceeding x. It returns 0 for an empty ECDF.
func (e *ECDF) P(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Value returns the smallest sample x such that P(X <= x) >= q. It
// returns ErrNoSamples for an empty ECDF and an error for q outside
// (0, 1].
func (e *ECDF) Value(q float64) (float64, error) {
	if len(e.sorted) == 0 {
		return 0, ErrNoSamples
	}
	if q <= 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: ecdf quantile %v outside (0,1]", q)
	}
	n := len(e.sorted)
	// Find the smallest index whose cumulative probability (i+1)/n
	// reaches q. Recomputing the division keeps Value(P(x)) <= x exact
	// even when q itself came from P.
	idx := sort.Search(n, func(i int) bool {
		return float64(i+1)/float64(n) >= q
	})
	if idx >= n {
		idx = n - 1
	}
	return e.sorted[idx], nil
}
