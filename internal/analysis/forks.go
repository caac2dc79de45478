package analysis

import "repro/internal/types"

// EmptyBlocksResult reproduces Fig. 6 and the §III-C3 headline: empty
// main-chain blocks overall and per mining pool.
type EmptyBlocksResult struct {
	// TotalMain is the number of main-chain blocks considered.
	TotalMain int
	// TotalEmpty counts empty main-chain blocks.
	TotalEmpty int
	// Fraction is TotalEmpty/TotalMain (paper: 1.45%).
	Fraction float64
	// PerPool maps pool -> (mined, empty) counts.
	PerPool map[string]PoolEmptyCount
	// Pools lists pools by descending mined count.
	Pools []string
}

// PoolEmptyCount pairs a pool's production with its empty-block count.
type PoolEmptyCount struct {
	Mined int
	Empty int
}

// Rate returns the pool's empty fraction (0 when it mined nothing).
func (c PoolEmptyCount) Rate() float64 {
	if c.Mined == 0 {
		return 0
	}
	return float64(c.Empty) / float64(c.Mined)
}

// ForkBranch is one maximal off-main chain segment.
type ForkBranch struct {
	// Blocks lists the branch's block hashes from fork point outward.
	Blocks []types.Hash
	// Length is len(Blocks); the paper observed 1..3.
	Length int
	// Recognized reports whether every block of the branch was
	// referenced as an uncle by a main block. In the paper's data no
	// branch longer than 1 was ever recognized.
	Recognized bool
	// AnyRecognized reports whether at least one block of the branch
	// was referenced.
	AnyRecognized bool
}

// ForksResult reproduces Table III and the §III-C4 aggregates.
type ForksResult struct {
	Branches []ForkBranch
	// ByLength maps branch length -> (total, recognized) counts.
	ByLength map[int]ForkLengthCount
	// MainBlocks / UncleBlocks / UnrecognizedBlocks classify every
	// observed block as the paper does: 92.81% main, 6.97% recognized
	// uncles, 0.22% unrecognized.
	MainBlocks         int
	UncleBlocks        int
	UnrecognizedBlocks int
}

// ForkLengthCount is one Table III row.
type ForkLengthCount struct {
	Total        int
	Recognized   int
	Unrecognized int
}

// OneMinerForkResult reproduces §III-C5: heights where one miner
// produced several blocks.
type OneMinerForkResult struct {
	// TupleCounts maps tuple size (2, 3, ...) -> number of heights
	// with that many same-miner blocks.
	TupleCounts map[int]int
	// RecognizedFraction is the share of extra versions (in 2- and
	// 3-tuples) that were referenced as uncles (paper: 98%).
	RecognizedFraction float64
	// SameTxSetFraction is the share of one-miner fork pairs whose
	// versions carry the same transaction set (paper: 56%).
	SameTxSetFraction float64
	// FractionOfForks is one-miner forks / all forked heights (paper:
	// >11% of forks).
	FractionOfForks float64
}

// sameTxSet compares transaction sets, preferring explicit hash lists
// and falling back to counts when links were not captured.
func sameTxSet(a, b *BlockMeta) bool {
	if len(a.TxHashes) > 0 || len(b.TxHashes) > 0 {
		if len(a.TxHashes) != len(b.TxHashes) {
			return false
		}
		set := make(map[types.Hash]bool, len(a.TxHashes))
		for _, h := range a.TxHashes {
			set[h] = true
		}
		for _, h := range b.TxHashes {
			if !set[h] {
				return false
			}
		}
		return true
	}
	return a.TxCount == b.TxCount
}
