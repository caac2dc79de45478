package mining

import (
	"repro/internal/chain"
	"repro/internal/sim"
	"repro/internal/types"
)

// Block withholding (§III-D). The paper argues Sparkpool's 9-block
// sequences were probably honest because the blocks "were not
// announced all together, like in a block withholding attack, and
// presented an average inter-block time". To reproduce that argument
// we need the attack itself: a withholding pool mines a private chain
// and releases it in a burst, either when it risks losing the race or
// when its private lead reaches a cap.
//
// The observable signature is exactly what the paper describes: a run
// of same-miner blocks whose release times are bunched together
// instead of spaced at the mining rate. analysis.DetectWithholding
// looks for that signature.

// withholdReleaseCap bounds the private chain length before a
// voluntary release (rewards must eventually be claimed).
const withholdReleaseCap = 4

// mineWithheld builds a private block for a withholding pool and
// decides whether the cap forces a release.
func (s *Simulator) mineWithheld(now sim.Time, pool *poolState) {
	var parent *types.Block
	if n := len(pool.private); n > 0 {
		parent = pool.private[n-1]
	} else if parent, _ = s.tree.Block(pool.head); parent == nil {
		return
	}
	gap := now - sim.Time(parent.Header.TimeMillis)
	difficulty := chain.NextDifficulty(s.cfg.Difficulty, parent.Header.Difficulty, gap, parent.Header.Number+1)
	txs := s.buildBody(s.rng.Bernoulli(pool.cfg.EmptyBlockProb))
	header := types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Header.Number + 1,
		Miner:      pool.address,
		MinerLabel: pool.cfg.Name,
		TimeMillis: uint64(now),
		Difficulty: difficulty,
		GasLimit:   s.cfg.GasLimit,
		GasUsed:    uint64(len(txs)) * types.TxGas,
	}
	pool.private = append(pool.private, types.NewBlock(header, txs, nil))
	if len(pool.private) >= withholdReleaseCap {
		s.releaseWithheld(now, pool)
	}
}

// releaseWithheld publishes a pool's entire private chain at one
// instant — the burst signature.
func (s *Simulator) releaseWithheld(now sim.Time, pool *poolState) {
	blocks := pool.private
	pool.private = nil
	for _, b := range blocks {
		extended := s.insert(now, b, pool)
		s.emit(BlockEvent{
			Now:          now,
			Block:        b,
			Pool:         pool.cfg.Name,
			Gateway:      s.gateway(pool),
			Version:      0,
			ExtendedHead: extended,
		})
	}
}

// maybeTriggerReleases releases any private chain whose lead is
// threatened: the public chain has caught up to (or passed) the
// private tip's height, so holding longer risks losing everything.
// Pools are visited in registry order: each release draws from the
// mining RNG, so the order is part of the determinism contract.
func (s *Simulator) maybeTriggerReleases(now sim.Time, publicHeight uint64) {
	for _, p := range s.pools {
		if n := len(p.private); n > 0 && publicHeight+1 >= p.private[n-1].Header.Number {
			s.releaseWithheld(now, p)
		}
	}
}
