package analysis

import (
	"fmt"
	"maps"

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
// time" as the honest baseline; 0.3 is a conservative default). It
// leaves times as it found it.
func DetectWithholding(view *ChainView, times map[types.Hash]sim.Time, minRun int, burstThreshold float64) (*WithholdingResult, error) {
	var f ChainFold
	f.TestWithholding(maps.Clone(times), minRun, burstThreshold)
	f.AddView(view)
	return f.Withholding()
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
