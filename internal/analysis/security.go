package analysis

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// SequencesResult reproduces Fig. 7 and the §III-D security analysis:
// the distribution of consecutive main-chain blocks mined by the same
// pool, compared with the theoretical expectation from hashrate.
type SequencesResult struct {
	// Runs maps pool -> multiset of consecutive-run lengths.
	Runs map[string][]int
	// MaxRun maps pool -> longest observed sequence.
	MaxRun map[string]int
	// TopPools lists pools by total main-chain blocks, descending.
	TopPools []string
	// BlockCounts maps pool -> main blocks mined.
	BlockCounts map[string]int
	// TotalMain is the main-chain length considered.
	TotalMain int
}

// SequenceFold computes Fig. 7 one main-chain block at a time, in
// height order, reading only each block's Miner: the zero value is an
// empty fold.
type SequenceFold struct {
	runs   stats.RunFold
	counts map[string]int
	total  int
}

// Add appends the miner of the next main-chain block.
func (f *SequenceFold) Add(miner string) {
	if f.counts == nil {
		f.counts = map[string]int{}
	}
	f.runs.Add(miner)
	f.counts[miner]++
	f.total++
}

// Result ends the fold.
func (f *SequenceFold) Result() (*SequencesResult, error) {
	if f.total == 0 {
		return nil, ErrNoBlocks
	}
	runs, counts := f.runs.Runs(), f.counts
	res := &SequencesResult{
		Runs:        runs,
		MaxRun:      make(map[string]int, len(runs)),
		BlockCounts: counts,
		TotalMain:   f.total,
	}
	for pool, rs := range runs {
		res.MaxRun[pool] = stats.MaxRun(rs)
	}
	for pool := range counts {
		res.TopPools = append(res.TopPools, pool)
	}
	sort.Slice(res.TopPools, func(i, j int) bool {
		if counts[res.TopPools[i]] != counts[res.TopPools[j]] {
			return counts[res.TopPools[i]] > counts[res.TopPools[j]]
		}
		return res.TopPools[i] < res.TopPools[j]
	})
	return res, nil
}

// CDF returns, for a pool, P(run length <= k) over its observed runs
// — Fig. 7's y-axis.
func (r *SequencesResult) CDF(pool string, k int) float64 {
	runs := r.Runs[pool]
	if len(runs) == 0 {
		return 0
	}
	n := 0
	for _, run := range runs {
		if run <= k {
			n++
		}
	}
	return float64(n) / float64(len(runs))
}

// CensorshipResult captures §III-D's comparison between the observed
// long sequences and their theoretical probability under the paper's
// independence model.
type CensorshipResult struct {
	Pool string
	// Share is the pool's observed main-chain share (the hashrate
	// proxy the paper uses).
	Share float64
	// Length is the sequence length under scrutiny.
	Length int
	// Observed counts sequences of at least Length.
	Observed int
	// Expected is the theoretical count n * share^Length.
	Expected float64
	// CensorSeconds is the censorship window such a sequence enables
	// (Length * mean inter-block time).
	CensorSeconds float64
}

// CensorshipWindows evaluates, for each of the topN pools, the longest
// sequence it achieved: observed vs expected counts and the implied
// temporary-censorship duration. interBlockSeconds is the mean
// inter-block time (13.3 s in the study window).
func CensorshipWindows(seq *SequencesResult, topN int, interBlockSeconds float64) ([]CensorshipResult, error) {
	if seq == nil || seq.TotalMain == 0 {
		return nil, ErrNoBlocks
	}
	if topN < 1 || interBlockSeconds <= 0 {
		return nil, fmt.Errorf("analysis: bad censorship params topN=%d inter=%v", topN, interBlockSeconds)
	}
	pools := seq.TopPools
	if len(pools) > topN {
		pools = pools[:topN]
	}
	var out []CensorshipResult
	for _, pool := range pools {
		share := float64(seq.BlockCounts[pool]) / float64(seq.TotalMain)
		k := seq.MaxRun[pool]
		if k < 2 {
			continue
		}
		expected, err := stats.ExpectedSequences(share, k, seq.TotalMain)
		if err != nil {
			return nil, err
		}
		out = append(out, CensorshipResult{
			Pool:          pool,
			Share:         share,
			Length:        k,
			Observed:      stats.CountRunsAtLeast(seq.Runs[pool], k),
			Expected:      expected,
			CensorSeconds: float64(k) * interBlockSeconds,
		})
	}
	return out, nil
}

// WholeChainTail summarizes the long-horizon Monte-Carlo (§III-D's
// "we looked beyond our one-month experiment"): counts of maximal
// same-miner sequences of each length at or above the threshold.
func WholeChainTail(seq *SequencesResult, minLength int) map[int]int {
	out := map[int]int{}
	for _, runs := range seq.Runs {
		for _, r := range runs {
			if r >= minLength {
				out[r]++
			}
		}
	}
	return out
}
