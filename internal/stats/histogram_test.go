package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins: want error")
	}
	if _, err := NewHistogram(10, 10, 4); err == nil {
		t.Error("empty range: want error")
	}
	if _, err := NewHistogram(10, 5, 4); err == nil {
		t.Error("inverted range: want error")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0, 5, 9.99, 10, 95, 99.9})
	if h.Total() != 6 {
		t.Fatalf("total: want 6, got %d", h.Total())
	}
	if h.Count(0) != 3 {
		t.Errorf("bin0: want 3, got %d", h.Count(0))
	}
	if h.Count(1) != 1 {
		t.Errorf("bin1: want 1, got %d", h.Count(1))
	}
	if h.Count(9) != 2 {
		t.Errorf("bin9: want 2, got %d", h.Count(9))
	}
}

func TestHistogramClamping(t *testing.T) {
	h, err := NewHistogram(0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-5)  // below range -> first bin
	h.Add(10)  // at max -> last bin
	h.Add(999) // above range -> last bin
	if h.Count(0) != 1 {
		t.Errorf("bin0: want 1, got %d", h.Count(0))
	}
	if h.Count(1) != 2 {
		t.Errorf("bin1: want 2, got %d", h.Count(1))
	}
	if h.Underflow() != 1 {
		t.Errorf("underflow: want 1, got %d", h.Underflow())
	}
	if h.Overflow() != 2 {
		t.Errorf("overflow: want 2, got %d", h.Overflow())
	}
}

// Regression: NaN used to ride int(math.Floor(NaN)) into the first
// bin, silently inflating the low tail. It must stay out of the bins
// and the total, and be visible through the NaNs accessor.
func TestHistogramNaN(t *testing.T) {
	h, err := NewHistogram(0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{math.NaN(), 1, math.NaN(), 8})
	if h.Total() != 2 {
		t.Fatalf("total: want 2 (NaN excluded), got %d", h.Total())
	}
	if h.Count(0) != 1 || h.Count(1) != 1 {
		t.Errorf("bins: want [1 1], got [%d %d]", h.Count(0), h.Count(1))
	}
	if h.NaNs() != 2 {
		t.Errorf("nans: want 2, got %d", h.NaNs())
	}
	if h.Underflow() != 0 || h.Overflow() != 0 {
		t.Errorf("NaN must not count as underflow/overflow: %d/%d", h.Underflow(), h.Overflow())
	}
	if d := h.Density(0) + h.Density(1); d != 1 {
		t.Errorf("density sum with NaNs present: want 1, got %v", d)
	}
}

// Regression: infinities are not NaN — they clamp into the edge bins
// like any other out-of-range sample, tallied as under/overflow.
func TestHistogramInfClamping(t *testing.T) {
	h, err := NewHistogram(0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(math.Inf(-1))
	h.Add(math.Inf(1))
	if h.Count(0) != 1 || h.Count(1) != 1 {
		t.Errorf("bins: want [1 1], got [%d %d]", h.Count(0), h.Count(1))
	}
	if h.Underflow() != 1 || h.Overflow() != 1 {
		t.Errorf("under/overflow: want 1/1, got %d/%d", h.Underflow(), h.Overflow())
	}
	if h.NaNs() != 0 {
		t.Errorf("nans: want 0, got %d", h.NaNs())
	}
}

// In-range samples must never touch the outlier counters, and the
// render of a purely in-range histogram is unchanged by the fix.
func TestHistogramInRangeAccessorsZero(t *testing.T) {
	h, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0, 5, 50, 99.999})
	if h.NaNs() != 0 || h.Underflow() != 0 || h.Overflow() != 0 {
		t.Errorf("in-range samples tripped outlier counters: nan=%d under=%d over=%d",
			h.NaNs(), h.Underflow(), h.Overflow())
	}
}

func TestHistogramDensitySumsToOne(t *testing.T) {
	f := func(raw []float64) bool {
		h, err := NewHistogram(-100, 100, 17)
		if err != nil {
			return false
		}
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		if n == 0 {
			return h.Total() == 0
		}
		sum := 0.0
		for i := 0; i < h.Bins(); i++ {
			sum += h.Density(i)
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBinEdges(t *testing.T) {
	h, err := NewHistogram(0, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 50 {
		t.Fatalf("bins: want 50, got %d", h.Bins())
	}
	if h.BinStart(0) != 0 || !almostEqual(h.BinStart(50), 500, 1e-9) {
		t.Errorf("edges: %v..%v", h.BinStart(0), h.BinStart(50))
	}
}

func TestHistogramRender(t *testing.T) {
	h, err := NewHistogram(0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{1, 1, 8})
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Fatalf("render missing bars:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", lines, out)
	}
	// Width <1 falls back to a default without panicking.
	if empty := h.Render(0); empty == "" {
		t.Fatal("render with width 0 should fall back")
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.P(0) != 0 {
		t.Error("empty ECDF P should be 0")
	}
	if _, err := e.Value(0.5); err != ErrNoSamples {
		t.Errorf("want ErrNoSamples, got %v", err)
	}
}

func TestECDFKnown(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("P(%v): want %v, got %v", c.x, c.want, got)
		}
	}
	v, err := e.Value(0.5)
	if err != nil || v != 2 {
		t.Errorf("Value(0.5): got %v, %v", v, err)
	}
	v, err = e.Value(1)
	if err != nil || v != 4 {
		t.Errorf("Value(1): got %v, %v", v, err)
	}
	if _, err := e.Value(0); err == nil {
		t.Error("Value(0): want error")
	}
	if _, err := e.Value(1.5); err == nil {
		t.Error("Value(1.5): want error")
	}
}

func TestECDFRoundTripProperty(t *testing.T) {
	// For any sample x in the set, Value(P(x)) <= x must hold: the
	// smallest value reaching x's cumulative probability cannot
	// exceed x itself.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		for _, x := range xs {
			p := e.P(x)
			v, err := e.Value(p)
			if err != nil || v > x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
