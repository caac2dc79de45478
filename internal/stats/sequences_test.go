package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSequenceProbabilityPaperValues(t *testing.T) {
	// §III-D: Ethermine at 25.9% share, 8 consecutive blocks:
	// 0.259^8 ≈ 2e-5.
	p, err := SequenceProbability(0.259, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, math.Pow(0.259, 8), 1e-18) {
		t.Fatalf("ethermine 8-seq: got %v", p)
	}
	if p < 1.9e-5 || p > 2.1e-5 {
		t.Fatalf("ethermine 8-seq should be ~2e-5, got %v", p)
	}
}

func TestExpectedSequencesPaperValues(t *testing.T) {
	// §III-D: 2e-5 * 201,086 ≈ 4 expected Ethermine 8-sequences/month.
	e, err := ExpectedSequences(0.259, 8, 201086)
	if err != nil {
		t.Fatal(err)
	}
	if e < 3.5 || e > 4.5 {
		t.Fatalf("ethermine expected 8-seq/month ~4, got %v", e)
	}
	// Sparkpool 9-sequence: 0.2269^9 * 201,086 ≈ 0.3 per month.
	e, err = ExpectedSequences(0.2269, 9, 201086)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0.25 || e > 0.35 {
		t.Fatalf("sparkpool expected 9-seq/month ~0.3, got %v", e)
	}
}

func TestSequenceProbabilityErrors(t *testing.T) {
	if _, err := SequenceProbability(-0.1, 2); err == nil {
		t.Error("negative share: want error")
	}
	if _, err := SequenceProbability(1.1, 2); err == nil {
		t.Error("share >1: want error")
	}
	if _, err := SequenceProbability(0.5, 0); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := ExpectedSequences(0.5, 2, -1); err == nil {
		t.Error("negative chain: want error")
	}
}

// runLengths folds a whole label sequence through RunFold.
func runLengths(labels []string) map[string][]int {
	var f RunFold
	for _, l := range labels {
		f.Add(l)
	}
	return f.Runs()
}

func TestRunLengths(t *testing.T) {
	got := runLengths([]string{"a", "a", "b", "a", "c", "c", "c"})
	want := map[string][]int{
		"a": {2, 1},
		"b": {1},
		"c": {3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("want %v, got %v", want, got)
	}
}

func TestRunLengthsEmpty(t *testing.T) {
	if got := runLengths(nil); len(got) != 0 {
		t.Fatalf("want empty map, got %v", got)
	}
}

func TestRunLengthsSingle(t *testing.T) {
	got := runLengths([]string{"x"})
	if !reflect.DeepEqual(got, map[string][]int{"x": {1}}) {
		t.Fatalf("got %v", got)
	}
}

func TestRunLengthsSumProperty(t *testing.T) {
	// The run lengths of any label sequence must sum to its length.
	f := func(raw []uint8) bool {
		labels := make([]string, len(raw))
		for i, r := range raw {
			labels[i] = string(rune('a' + r%3))
		}
		runs := runLengths(labels)
		sum := 0
		for _, rs := range runs {
			for _, r := range rs {
				sum += r
			}
		}
		return sum == len(labels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxRunAndCount(t *testing.T) {
	runs := []int{1, 5, 3, 5, 2}
	if MaxRun(runs) != 5 {
		t.Errorf("max: got %d", MaxRun(runs))
	}
	if MaxRun(nil) != 0 {
		t.Errorf("empty max: got %d", MaxRun(nil))
	}
	if CountRunsAtLeast(runs, 3) != 3 {
		t.Errorf("count>=3: got %d", CountRunsAtLeast(runs, 3))
	}
	if CountRunsAtLeast(runs, 6) != 0 {
		t.Errorf("count>=6: got %d", CountRunsAtLeast(runs, 6))
	}
}
