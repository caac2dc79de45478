package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Fatalf("want ErrNoSamples, got %v", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 1 || s.Mean != 42 || s.Median != 42 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.StdDev != 0 {
		t.Fatalf("single-sample stddev should be 0, got %v", s.StdDev)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("mean: want 5, got %v", s.Mean)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Errorf("median: want 4.5, got %v", s.Median)
	}
	// Sample stddev of the classic example set is sqrt(32/7).
	if !almostEqual(s.StdDev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("stddev: want %v, got %v", math.Sqrt(32.0/7.0), s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max: got %v/%v", s.Min, s.Max)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 40},
		{0.5, 25},
		{1.0 / 3.0, 20},
		{0.25, 17.5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("q=%v: %v", c.q, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("q=%v: want %v, got %v", c.q, c.want, got)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrNoSamples {
		t.Errorf("empty: want ErrNoSamples, got %v", err)
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Quantile([]float64{1}, q); err == nil {
			t.Errorf("q=%v: want error", q)
		}
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMeanMedian(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Errorf("mean empty: %v", err)
	}
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil || s.Mean != 2.5 {
		t.Errorf("mean: got %v, %v", s.Mean, err)
	}
	s, err = Summarize([]float64{1, 3, 2})
	if err != nil || s.Median != 2 {
		t.Errorf("median: got %v, %v", s.Median, err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, err1 := Quantile(xs, qa)
		vb, err2 := Quantile(xs, qb)
		if err1 != nil || err2 != nil {
			return false
		}
		return va <= vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qq := math.Abs(math.Mod(q, 1))
		v, err := Quantile(xs, qq)
		if err != nil {
			return false
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return v >= s.Min && v <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	s, err := Summarize([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
