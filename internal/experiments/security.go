package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mining"
	"repro/internal/rewards"
)

// WithholdingExperiment reproduces §III-D's exoneration argument: the
// burst test that distinguishes honest long sequences (spaced at the
// mining rate, like Sparkpool's) from a block-withholding release. It
// runs the paper's honest pool mix and a counterfactual containing a
// real withholding attacker, and applies the same detector to both.
func WithholdingExperiment(seed uint64, sc Scale) (*Outcome, error) {
	blocks := chainScale(sc) / 4
	// See analysis.DefaultWithholdingMinRun for the calibration
	// rationale; scenario-file withholding outputs share it.
	const minRun = analysis.DefaultWithholdingMinRun
	const threshold = analysis.DefaultWithholdingBurstRatio

	// detect runs one chain and applies the burst test to it, with the
	// publish times recorded through the run's block hook.
	detect := func(mutate func(*mining.Config)) (*analysis.WithholdingResult, error) {
		fold, err := settledFold(seed, blocks, func(c *mining.Config, fold *analysis.ChainFold) {
			if mutate != nil {
				mutate(c)
			}
			fold.TestWithholding(mining.RecordPublishTimes(c), minRun, threshold)
		})
		if err != nil {
			return nil, err
		}
		return fold.Withholding()
	}
	honestRes, err := detect(nil)
	if err != nil {
		return nil, fmt.Errorf("honest run: %w", err)
	}
	attackedRes, err := detect(func(c *mining.Config) {
		c.Pools = []mining.PoolConfig{
			{Name: "Attacker", HashrateShare: 0.30, GatewayRegions: []geo.Region{geo.EasternAsia},
				SwitchDelayMean: mining.DefaultSwitchDelay, Withholder: true},
			{Name: "Honest", HashrateShare: 0.70, GatewayRegions: []geo.Region{geo.WesternEurope},
				SwitchDelayMean: mining.DefaultSwitchDelay},
		}
	})
	if err != nil {
		return nil, fmt.Errorf("attacked run: %w", err)
	}
	attackerFlagged, attackerRuns := 0, 0
	for _, v := range attackedRes.Verdicts {
		if v.Pool != "Attacker" {
			continue
		}
		attackerRuns++
		if v.Flagged {
			attackerFlagged++
		}
	}

	rendered := fmt.Sprintf(`Withholding burst test (§III-D), %d blocks, runs >= %d
  honest pool mix:   %d runs examined, %d flagged
  with attacker:     %d attacker runs, %d flagged as withheld
  The paper applies exactly this test to Sparkpool's 9-block sequences:
  spaced at the average inter-block time => "unlikely that Sparkpool
  performed such an attack".
`, blocks, minRun,
		honestRes.RunsExamined, honestRes.FlaggedRuns,
		attackerRuns, attackerFlagged)
	return &Outcome{
		ID:       "W1",
		Title:    "§III-D — withholding burst test",
		Rendered: rendered,
		Metrics: map[string]float64{
			"honest_runs":      float64(honestRes.RunsExamined),
			"honest_flagged":   float64(honestRes.FlaggedRuns),
			"attacker_runs":    float64(attackerRuns),
			"attacker_flagged": float64(attackerFlagged),
		},
	}, nil
}

// ConstantinopleExperiment reproduces the §III-C1 explanation for the
// commit-time improvement: the difficulty bomb stretches the
// inter-block time, and delaying it (EIP-1234) restores the base
// equilibrium, shortening the 12-confirmation wait from ~200 s to
// ~189 s. The closed-loop difficulty model regenerates both regimes.
func ConstantinopleExperiment(seed uint64, sc Scale) (*Outcome, error) {
	blocks := chainScale(sc)
	if sc == ScaleSmall {
		blocks = 60_000
	}
	run := func(delayed bool) (meanGap float64, err error) {
		// The ablation reads only the main chain's header times.
		times := make([]uint64, 0, blocks+1)
		_, err = core.RunChainOnly(seed, blocks, func(c *mining.Config) {
			// Compressed bomb schedule so the effect is visible
			// within the run: the doubling period is chosen so the
			// bomb term reaches difficulty magnitude (2^38 vs 3e11)
			// near the end of the run, like mainnet approaching a
			// fork deadline.
			c.Difficulty.BombPeriodBlocks = blocks / 40
			if delayed {
				c.Difficulty.BombDelayBlocks = 100_000_000
			} else {
				c.Difficulty.BombDelayBlocks = 0
			}
			// Sequence statistics are irrelevant here; strip fork
			// machinery for speed.
			for i := range c.Pools {
				c.Pools[i].EmptyBlockProb = 0
				c.Pools[i].MultiVersionProb = 0
				c.Pools[i].SwitchDelayMean = 0
			}
			c.GatewayDelay = 0
			c.OnSettled = func(h chain.Height) { times = append(times, h.Main.Header.TimeMillis) }
		})
		if err != nil {
			return 0, err
		}
		if len(times) < 3 {
			return 0, fmt.Errorf("chain too short")
		}
		// Mean gap over the final third, where the bomb has grown.
		start := 2 * len(times) / 3
		var sum float64
		n := 0
		for i := start + 1; i < len(times); i++ {
			sum += float64(times[i]) - float64(times[i-1])
			n++
		}
		return sum / float64(n) / 1000, nil
	}
	bombed, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("bombed run: %w", err)
	}
	delayed, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("delayed run: %w", err)
	}
	rendered := fmt.Sprintf(`Constantinople ablation (§III-C1): difficulty bomb vs EIP-1234 delay
  bomb live:     mean inter-block %.1f s  -> 12-conf wait ~%.0f s
  bomb delayed:  mean inter-block %.1f s  -> 12-conf wait ~%.0f s
  paper: pre-Constantinople 14.3 s (12-conf 200 s), post 13.3 s (189 s)
`, bombed, 12*bombed+bombed/2, delayed, 12*delayed+delayed/2)
	return &Outcome{
		ID:       "C1",
		Title:    "§III-C1 — Constantinople bomb-delay ablation",
		Rendered: rendered,
		Metrics: map[string]float64{
			"bombed_interblock_s":  bombed,
			"delayed_interblock_s": delayed,
		},
	}, nil
}

// EmptyBlockSpreadExperiment quantifies §III-C3's warning: "if a
// dominant number of miners switched to the selfish strategy of
// occasionally mining empty blocks, it would be disastrous for the
// platform". It compares transaction inclusion delay between the
// measured empty-block rates (~1.45%) and a spread scenario where
// every pool mines 30% of its blocks empty.
func EmptyBlockSpreadExperiment(seed uint64, sc Scale) (*Outcome, error) {
	measure := func(emptyProb float64) (median, p90 float64, err error) {
		cfg := workloadConfig(seed, sc)
		if emptyProb >= 0 {
			for i := range cfg.Mining.Pools {
				cfg.Mining.Pools[i].EmptyBlockProb = emptyProb
			}
		}
		res, err := core.RunCampaign(cfg)
		if err != nil {
			return 0, 0, err
		}
		commit, err := analysis.CommitTimes(res.Index, res.View)
		if err != nil {
			return 0, 0, err
		}
		m, err := commit.Inclusion.Value(0.5)
		if err != nil {
			return 0, 0, err
		}
		p, err := commit.Inclusion.Value(0.9)
		if err != nil {
			return 0, 0, err
		}
		return m, p, nil
	}
	todayMed, todayP90, err := measure(-1) // paper-calibrated rates
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	spreadMed, spreadP90, err := measure(0.30)
	if err != nil {
		return nil, fmt.Errorf("spread scenario: %w", err)
	}
	rendered := fmt.Sprintf(`Empty-block spread scenario (§III-C3 projection)
  measured rates (~1.45%% empty): inclusion median %.0f s, p90 %.0f s
  every pool 30%% empty:          inclusion median %.0f s, p90 %.0f s
  Empty blocks push waiting transactions to later blocks; at today's
  rates the damage is small, which is the paper's point — the incentive
  is unchecked, and the penalty grows with adoption.
`, todayMed, todayP90, spreadMed, spreadP90)
	return &Outcome{
		ID:       "E1",
		Title:    "§III-C3 — empty-block spread scenario",
		Rendered: rendered,
		Metrics: map[string]float64{
			"today_median_s":  todayMed,
			"today_p90_s":     todayP90,
			"spread_median_s": spreadMed,
			"spread_p90_s":    spreadP90,
		},
	}, nil
}

// RevenueExperiment quantifies the incentive arguments behind the
// selfish behaviors: per-pool revenue including one-miner uncle
// income, and the empty-block fee tradeoff.
func RevenueExperiment(seed uint64, sc Scale) (*Outcome, error) {
	blocks := chainScale(sc) / 4
	fold, err := settledFold(seed, blocks, nil)
	if err != nil {
		return nil, err
	}
	tallies, err := fold.Rewards()
	if err != nil {
		return nil, err
	}
	const meanGasPrice = 10_000_000_000
	acct, err := rewards.Revenue(tallies, rewards.DefaultSchedule(), meanGasPrice)
	if err != nil {
		return nil, err
	}
	var oneMinerGwei, totalGwei uint64
	for _, r := range acct {
		oneMinerGwei += r.OneMinerUncleGwei
		totalGwei += r.Total()
	}
	forgone, frac := rewards.EmptyBlockTradeoff(rewards.DefaultSchedule(), 100, meanGasPrice)
	rendered := fmt.Sprintf(`Incentive accounting (%d blocks)
  one-miner uncle income: %.2f ETH (%.4f%% of all mining income)
  empty-block fee sacrifice: %.4f ETH per block (%.2f%% of the 2 ETH reward)
  The paper's incentive story in numbers: forging an extra version of
  one's own block earns a near-full uncle reward, while skipping the
  transactions of a block costs ~1%% of its reward — both selfish
  strategies pay.
`, blocks,
		float64(oneMinerGwei)/rewards.GweiPerETH,
		100*float64(oneMinerGwei)/float64(totalGwei),
		float64(forgone)/rewards.GweiPerETH, frac*100)
	return &Outcome{
		ID:       "INC",
		Title:    "Incentive accounting (§III-C3, §III-C5)",
		Rendered: rendered,
		Metrics: map[string]float64{
			"one_miner_eth":      float64(oneMinerGwei) / rewards.GweiPerETH,
			"empty_fee_fraction": frac,
		},
	}, nil
}
