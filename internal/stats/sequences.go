package stats

import (
	"fmt"
	"math"
)

// The helpers in this file implement the probabilistic model the paper
// uses in §III-D to compare observed consecutive-block sequences with
// their theoretical likelihood: a pool holding fraction p of the
// hashrate mines each block independently with probability p, so a
// sequence of k consecutive blocks has probability p^k, and over a
// chain of n blocks roughly n*p^k such sequences are expected.

// SequenceProbability returns p^k: the probability that a pool with
// hashrate share p mines k consecutive blocks starting at a given
// height. It returns an error when p is outside [0,1] or k < 1.
func SequenceProbability(p float64, k int) (float64, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: hashrate share %v outside [0,1]", p)
	}
	if k < 1 {
		return 0, fmt.Errorf("stats: sequence length %d < 1", k)
	}
	return math.Pow(p, float64(k)), nil
}

// ExpectedSequences returns the expected number of k-length runs of a
// pool with share p over a chain of n blocks, using the paper's
// first-order estimate n * p^k (§III-D computes Ethermine's expected
// 8-block sequences as 2e-5 * 201,086 ≈ 4 exactly this way).
func ExpectedSequences(p float64, k, n int) (float64, error) {
	prob, err := SequenceProbability(p, k)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("stats: chain length %d < 0", n)
	}
	return prob * float64(n), nil
}

// RunFold scans a sequence of labels one at a time and returns, per
// label, the multiset of maximal-run lengths, e.g. labels a,a,b,a
// yields {a:[2,1], b:[1]}, without holding the sequence. The analysis
// pipeline folds main-chain miner labels through it to build Fig. 7.
// The zero value is an empty fold.
type RunFold struct {
	runs map[string][]int
	cur  string
	run  int
}

// Add appends the next label.
func (f *RunFold) Add(l string) {
	if f.run > 0 && l == f.cur {
		f.run++
		return
	}
	f.close()
	f.cur, f.run = l, 1
}

// close files the open run.
func (f *RunFold) close() {
	if f.run == 0 {
		return
	}
	if f.runs == nil {
		f.runs = make(map[string][]int)
	}
	f.runs[f.cur] = append(f.runs[f.cur], f.run)
	f.run = 0
}

// Runs ends the fold and returns, per label, the lengths of its
// maximal runs in order of occurrence.
func (f *RunFold) Runs() map[string][]int {
	f.close()
	if f.runs == nil {
		f.runs = make(map[string][]int)
	}
	return f.runs
}

// MaxRun returns the longest run in a run-length multiset, or 0 when
// the set is empty.
func MaxRun(runs []int) int {
	max := 0
	for _, r := range runs {
		if r > max {
			max = r
		}
	}
	return max
}

// CountRunsAtLeast returns how many runs are >= k.
func CountRunsAtLeast(runs []int, k int) int {
	n := 0
	for _, r := range runs {
		if r >= k {
			n++
		}
	}
	return n
}
