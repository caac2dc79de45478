// Package rewards implements Ethereum's Byzantium/Constantinople block
// reward schedule and derives the per-pool revenue accounting behind
// the paper's incentive arguments:
//
//   - §III-C3: empty blocks sacrifice transaction fees but keep the
//     (much larger) static block reward — the "perverse incentive".
//   - §III-C5: one-miner fork versions earn uncle rewards in 98% of
//     observed 2-/3-tuples, so mining several versions of one's own
//     block pays.
//   - §V: the restricted uncle rule removes exactly that revenue.
//
// Amounts are denominated in gwei (1 ETH = 1e9 gwei): wei-denominated
// uint64 aggregates would overflow after only ~9 blocks of 2 ETH
// rewards, while gwei keeps whole-chain totals comfortably in range.
// Constantinople (EIP-1234) set the static block reward to 2 ETH.
package rewards

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/types"
)

// Gwei-denominated schedule constants.
const (
	// GweiPerETH is the gwei/ETH scale.
	GweiPerETH = 1_000_000_000
	// WeiPerGwei converts wei gas prices into gwei accounting units.
	WeiPerGwei = 1_000_000_000
	// BlockRewardGwei is the post-Constantinople static reward (2 ETH).
	BlockRewardGwei = 2 * GweiPerETH
	// NephewRewardDenominator: each referenced uncle earns the
	// including block 1/32 of the block reward.
	NephewRewardDenominator = 32
	// UncleRewardDenominator scales the uncle miner's reward:
	// (8 - depth) / 8 of the block reward.
	UncleRewardDenominator = 8
)

// Schedule captures the reward parameters (a value type so ablations
// can tweak it).
type Schedule struct {
	BlockRewardGwei uint64
}

// DefaultSchedule returns the Constantinople schedule in force during
// the paper's measurement window.
func DefaultSchedule() Schedule {
	return Schedule{BlockRewardGwei: BlockRewardGwei}
}

// UncleReward returns the reward paid to an uncle's miner when the
// uncle at height uncleNumber is referenced by a block at height
// includeNumber: blockReward * (8 - depth) / 8, zero beyond depth 7.
func (s Schedule) UncleReward(uncleNumber, includeNumber uint64) (uint64, error) {
	if includeNumber <= uncleNumber {
		return 0, fmt.Errorf("rewards: include height %d not above uncle height %d", includeNumber, uncleNumber)
	}
	depth := includeNumber - uncleNumber
	if depth > types.MaxUncleDepth {
		return 0, nil
	}
	return s.BlockRewardGwei / UncleRewardDenominator * (UncleRewardDenominator - depth), nil
}

// NephewReward returns the bonus the including miner earns per
// referenced uncle.
func (s Schedule) NephewReward() uint64 {
	return s.BlockRewardGwei / NephewRewardDenominator
}

// PoolRevenue aggregates one pool's earnings over an analysis window.
type PoolRevenue struct {
	Pool string
	// BlocksMined counts main-chain blocks.
	BlocksMined int
	// UnclesRewarded counts this pool's blocks that earned uncle
	// rewards.
	UnclesRewarded int
	// BlockRewardGwei is static reward income (main blocks).
	BlockRewardGwei uint64
	// FeeGwei is transaction fee income (gas * gasPrice summed).
	FeeGwei uint64
	// NephewGwei is income from referencing other miners' uncles.
	NephewGwei uint64
	// UncleGwei is income from this pool's own stale blocks being
	// referenced.
	UncleGwei uint64
	// OneMinerUncleGwei is the subset of UncleGwei earned by blocks at
	// heights where the pool also mined the main block — the §III-C5
	// exploit revenue.
	OneMinerUncleGwei uint64
}

// Total returns the pool's total income.
func (r PoolRevenue) Total() uint64 {
	return r.BlockRewardGwei + r.FeeGwei + r.NephewGwei + r.UncleGwei
}

// Revenue prices each pool's reward tally (analysis.ChainFold's
// Rewards) under a schedule: the static reward per main-chain block,
// fees at meanGasPriceWei per transaction's gas, the nephew bonus per
// named uncle, and each of the pool's uncles at the depth it was first
// named from.
func Revenue(tallies map[string]*analysis.RewardTally, s Schedule, meanGasPriceWei uint64) (map[string]*PoolRevenue, error) {
	out := make(map[string]*PoolRevenue, len(tallies))
	for pool, t := range tallies {
		r := &PoolRevenue{
			Pool:            pool,
			BlocksMined:     t.Mined,
			BlockRewardGwei: uint64(t.Mined) * s.BlockRewardGwei,
			FeeGwei:         t.Txs * types.TxGas * (meanGasPriceWei / WeiPerGwei),
			NephewGwei:      t.Nephews * s.NephewReward(),
		}
		for depth := uint64(1); depth <= types.MaxUncleDepth; depth++ {
			reward, err := s.UncleReward(0, depth)
			if err != nil {
				return nil, err
			}
			r.UnclesRewarded += t.Uncles[depth]
			r.UncleGwei += uint64(t.Uncles[depth]) * reward
			r.OneMinerUncleGwei += uint64(t.OneMinerUncles[depth]) * reward
		}
		out[pool] = r
	}
	return out, nil
}

// EmptyBlockTradeoff quantifies §III-C3's incentive: the fee income an
// empty block forgoes versus the static reward it keeps, as a
// fraction. With ~100 transactions per block at ~10 Gwei, fees are
// ~0.02 ETH against a 2 ETH reward — about 1%: the penalty the paper
// calls small compared to the head-start benefit.
func EmptyBlockTradeoff(s Schedule, txPerBlock int, meanGasPriceWei uint64) (forgoneFeeGwei uint64, fractionOfReward float64) {
	forgoneFeeGwei = uint64(txPerBlock) * types.TxGas * (meanGasPriceWei / WeiPerGwei)
	if s.BlockRewardGwei == 0 {
		return forgoneFeeGwei, 0
	}
	return forgoneFeeGwei, float64(forgoneFeeGwei) / float64(s.BlockRewardGwei)
}
