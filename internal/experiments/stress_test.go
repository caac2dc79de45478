package experiments_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestGoldenStress100kParallelInvariance is the full tier of `make
// test-stress`: the shipped 100,000-node scenario
// (examples/scenarios/stress-100k.json) at its full literal size, run
// on the serial loop at -parallel 1 and 8 and on the conductor at 1
// and 6 workers (both at -parallel 8), with byte-identical run
// directories required. The regular golden matrix already covers the
// same file at small scale; this tier proves the struct-of-arrays core
// holds the determinism contract at the scale it was built for. Four
// full 100k campaigns cost minutes, so the test is opt-in via the
// STRESS100K environment variable (the test-stress Make target sets
// it).
//
// The conductor's window loop is deterministic, so its runs' telemetry
// rows carry exact counts: a change to the lookahead bounds or the
// deadline computation moves stalled / windows / merged at every
// worker count, and nothing else does. So do the terms of the exact
// speed-up bound, work / span / global — (42,114,700 + 655) /
// (20,855,490 + 655) = 2.02 here: no worker count can run this tier
// more than 2.02 times faster than one lane. They are pinned here for
// goldenSeed under model version 4; wall-clock figures for the
// tier are whatever telemetry.json says on the machine at hand.
func TestGoldenStress100kParallelInvariance(t *testing.T) {
	if os.Getenv("STRESS100K") == "" {
		t.Skip("set STRESS100K=1 (make test-stress) to run the full 100k invariance tier")
	}
	set, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "stress-100k.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ Stalled, Windows, Merged, Events, Work, Span, Global uint64 }
	want := counts{Stalled: 10_275, Windows: 15_871, Merged: 25_275_822, Events: 42_115_355,
		Work: 42_114_700, Span: 20_855_490, Global: 655}
	obs.Default.EnableTelemetry()
	defer obs.Default.Disable()
	ref := filepath.Join(t.TempDir(), "s0p1")
	obs.Default.Take(experiments.ReportSeeds(
		runGoldenAt(t, specs, ref, goldenCombo{0, 1}, []*scenario.Set{set}, experiments.ScaleMedium, 1)))
	for _, c := range []goldenCombo{{0, 8}, {1, 8}, {6, 8}} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%dp%d", c.shards, c.parallel))
		report := runGoldenAt(t, specs, dir, c, []*scenario.Set{set}, experiments.ScaleMedium, 1)
		rows := obs.Default.Take(experiments.ReportSeeds(report))
		if len(rows) != 1 {
			t.Fatalf("%v: %d telemetry rows, want the campaign's one run", c, len(rows))
		}
		for _, rt := range rows {
			got := counts{rt.ShardStalled, rt.ShardWindows, rt.ShardMerged, rt.Events,
				rt.ShardWork, rt.ShardSpan, rt.ShardGlobalEvents}
			if c.shards > 0 && got != want {
				t.Errorf("%v: %+v, want %+v", c, got, want)
			}
		}
		assertDirsIdentical(t, ref, dir, c)
	}
}
