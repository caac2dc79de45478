package analysis

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/types"
)

// Withholding detection (§III-D). The paper exonerates Sparkpool's
// 9-block sequences by checking two signatures of a withholding
// release: the blocks of the run would be "announced all together"
// (bunched release times) instead of spaced at the mining rate. This
// file implements that test over any (block -> observation time)
// mapping — first observations from measurement logs in network mode,
// or publication times in chain-only mode.

// WithholdingVerdict reports one same-miner run's analysis.
type WithholdingVerdict struct {
	Pool        string
	StartHeight uint64
	Length      int
	// MeanIntraGapMillis is the mean observation gap between the
	// run's consecutive blocks.
	MeanIntraGapMillis float64
	// GlobalMeanGapMillis is the chain-wide mean gap (the expected
	// honest spacing).
	GlobalMeanGapMillis float64
	// BurstRatio is MeanIntraGap / GlobalMeanGap; honest runs sit
	// near 1, withheld releases near 0.
	BurstRatio float64
	// Flagged marks runs whose ratio fell below the threshold.
	Flagged bool
}

// Calibrated detector settings, shared by the registry's W1 spec and
// scenario-file withholding outputs. Runs of >= 4 with a 0.04 ratio
// keep the burst test's false-positive rate at zero while trivially
// catching real releases: honest same-miner runs bottom out near
// ratio 0.06 (quick follow-ups during blind windows), whereas a burst
// release has zero intra-run gaps.
const (
	// DefaultWithholdingMinRun is the minimum same-miner run length
	// the detector examines.
	DefaultWithholdingMinRun = 4
	// DefaultWithholdingBurstRatio is the flagging threshold on
	// MeanIntraGap / GlobalMeanGap.
	DefaultWithholdingBurstRatio = 0.04
)

// WithholdingResult aggregates all examined runs.
type WithholdingResult struct {
	Verdicts []WithholdingVerdict
	// FlaggedRuns counts verdicts with Flagged set.
	FlaggedRuns int
	// RunsExamined counts same-miner runs of at least the minimum
	// length.
	RunsExamined int
}

// DetectWithholding scans the main chain for same-miner runs of at
// least minRun blocks and classifies each by its burst ratio against
// burstThreshold (the paper's reasoning uses "average inter-block
// time" as the honest baseline; 0.3 is a conservative default).
func DetectWithholding(view *ChainView, times map[types.Hash]sim.Time, minRun int, burstThreshold float64) (*WithholdingResult, error) {
	if view == nil || len(view.Main) < 2 {
		return nil, ErrNoBlocks
	}
	if minRun < 2 {
		return nil, fmt.Errorf("analysis: minRun %d < 2", minRun)
	}
	if burstThreshold <= 0 || burstThreshold >= 1 {
		return nil, fmt.Errorf("analysis: burst threshold %v outside (0,1)", burstThreshold)
	}
	// Global mean gap over observed consecutive main blocks.
	var gaps []float64
	for i := 1; i < len(view.Main); i++ {
		a, okA := times[view.Main[i-1].Hash]
		b, okB := times[view.Main[i].Hash]
		if !okA || !okB {
			continue
		}
		g := float64(b - a)
		if g < 0 {
			g = 0
		}
		gaps = append(gaps, g)
	}
	if len(gaps) == 0 {
		return nil, fmt.Errorf("analysis: no timed consecutive blocks")
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	globalMean := sum / float64(len(gaps))
	if globalMean <= 0 {
		return nil, fmt.Errorf("analysis: degenerate global gap %v", globalMean)
	}

	res := &WithholdingResult{}
	i := 0
	for i < len(view.Main) {
		j := i
		for j+1 < len(view.Main) && view.Main[j+1].Miner == view.Main[i].Miner {
			j++
		}
		runLen := j - i + 1
		if runLen >= minRun {
			verdict := WithholdingVerdict{
				Pool:                view.Main[i].Miner,
				StartHeight:         view.Main[i].Number,
				Length:              runLen,
				GlobalMeanGapMillis: globalMean,
			}
			var intra []float64
			for k := i + 1; k <= j; k++ {
				a, okA := times[view.Main[k-1].Hash]
				b, okB := times[view.Main[k].Hash]
				if !okA || !okB {
					continue
				}
				g := float64(b - a)
				if g < 0 {
					g = 0
				}
				intra = append(intra, g)
			}
			if len(intra) > 0 {
				var is float64
				for _, g := range intra {
					is += g
				}
				verdict.MeanIntraGapMillis = is / float64(len(intra))
				verdict.BurstRatio = verdict.MeanIntraGapMillis / globalMean
				verdict.Flagged = verdict.BurstRatio < burstThreshold
				res.Verdicts = append(res.Verdicts, verdict)
				res.RunsExamined++
				if verdict.Flagged {
					res.FlaggedRuns++
				}
			}
		}
		i = j + 1
	}
	sort.Slice(res.Verdicts, func(a, b int) bool {
		return res.Verdicts[a].StartHeight < res.Verdicts[b].StartHeight
	})
	return res, nil
}

// RenderWithholding prints the verdict table.
func RenderWithholding(r *WithholdingResult) string {
	out := "Withholding detection (§III-D burst test)\n"
	out += fmt.Sprintf("  runs examined: %d, flagged: %d\n", r.RunsExamined, r.FlaggedRuns)
	out += fmt.Sprintf("  %-16s %8s %6s %14s %12s %8s\n", "pool", "height", "len", "intra-gap(ms)", "ratio", "verdict")
	for _, v := range r.Verdicts {
		verdict := "honest"
		if v.Flagged {
			verdict = "WITHHELD"
		}
		out += fmt.Sprintf("  %-16s %8d %6d %14.0f %12.3f %8s\n",
			v.Pool, v.StartHeight, v.Length, v.MeanIntraGapMillis, v.BurstRatio, verdict)
	}
	return out
}
