package experiments_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// The shard-axis golden gate: run directories must be byte-identical
// across the sharded conductor's worker counts (shards ∈ {1, 2, 6})
// crossed with the runner's campaign-level parallelism (∈ {1, 8}).
// Sharding is enabled through the ETHREPRO_SHARDS environment knob the
// CampaignConfig falls back to, so the exact artifact surface of
// `ETHREPRO_SHARDS=n ethrepro ...` is what is pinned here. Note the
// contract deliberately does NOT span shards=0: the sharded conductor
// schedules through lane-forked RNG streams, so its artifacts are a
// separate (equally deterministic) family from the single-engine ones.
//
// Grid runs multiply campaign count six-fold, so the in-package tiers
// (both -short and full) check the grid's corner cases on the short
// spec/scenario core, keeping `go test ./...` inside its timeout. The
// exhaustive acceptance sweep — every builtin spec and every shipped
// scenario across the complete grid — is opt-in via SHARDGOLDEN=full,
// which `make test-shard` sets with a timeout sized for it.

// shardGoldenFull reports whether the exhaustive acceptance sweep was
// requested (SHARDGOLDEN=full, the make test-shard full lane).
func shardGoldenFull() bool { return os.Getenv("SHARDGOLDEN") == "full" }

// shardCombo is one point on the shards × parallel grid.
type shardCombo struct {
	shards   int
	parallel int
}

// goldenShardGrid returns the combos to compare against the reference
// (shards=1, parallel=1). The default corners still cross every
// mechanism: multi-lane merge under campaign parallelism (6,8) and
// the two-lane case (2,1); SHARDGOLDEN=full runs the whole grid from
// the acceptance criteria.
func goldenShardGrid() []shardCombo {
	if shardGoldenFull() {
		return []shardCombo{{1, 8}, {2, 1}, {2, 8}, {6, 1}, {6, 8}}
	}
	return []shardCombo{{2, 1}, {6, 8}}
}

// runGoldenSharded is runGolden with the conductor enabled at the
// given worker count for every campaign in the run.
func runGoldenSharded(t *testing.T, specs []experiments.Spec, dir string, shards, parallel int, sets []*scenario.Set) {
	t.Helper()
	t.Setenv("ETHREPRO_SHARDS", fmt.Sprint(shards))
	runGolden(t, specs, dir, parallel, sets)
}

// TestGoldenShardBuiltinSpecsInvariance pins the built-in registry to
// the shard grid — by default the short-tier core (the paper specs
// plus the dependability specs, which exercise the fault injector's
// region-keyed lanes), under SHARDGOLDEN=full everything but the
// R1/R2 sweeps, matching the parallel harness.
func TestGoldenShardBuiltinSpecsInvariance(t *testing.T) {
	var specs []experiments.Spec
	for _, s := range experiments.Specs() {
		if !shardGoldenFull() && !goldenShortSpecs[s.ID] {
			continue
		}
		if s.ID == "R1" || s.ID == "R2" {
			// Like the parallel harness, the relay sweeps stay out of
			// this gate: relay-compare.json below covers sharded relay
			// determinism at a fraction of their multi-campaign cost.
			continue
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		t.Fatal("no specs selected")
	}
	ref := filepath.Join(t.TempDir(), "s1p1")
	runGoldenSharded(t, specs, ref, 1, 1, nil)
	for _, c := range goldenShardGrid() {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%dp%d", c.shards, c.parallel))
		runGoldenSharded(t, specs, dir, c.shards, c.parallel, nil)
		assertDirsIdentical(t, ref, dir)
	}
}

// TestGoldenShardScenarioArtifactsInvariance runs the shipped
// acceptance scenarios (baseline, partition-heal for fault
// determinism, relay-compare for protocol determinism) across the
// shard grid, embedded scenario.json and digest manifest included.
func TestGoldenShardScenarioArtifactsInvariance(t *testing.T) {
	pattern := filepath.Join("..", "..", "examples", "scenarios", "*.json")
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	ran := 0
	for _, path := range paths {
		name := filepath.Base(path)
		// Default: the three acceptance scenarios. SHARDGOLDEN=full:
		// every shipped file at small scale (the 100k file runs its
		// full size in the STRESS100K gate below).
		if !shardGoldenFull() && !goldenShortScenarios[name] {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			set, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := set.Compile()
			if err != nil {
				t.Fatal(err)
			}
			ref := filepath.Join(t.TempDir(), "s1p1")
			runGoldenSharded(t, specs, ref, 1, 1, []*scenario.Set{set})
			for _, c := range goldenShardGrid() {
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%dp%d", c.shards, c.parallel))
				runGoldenSharded(t, specs, dir, c.shards, c.parallel, []*scenario.Set{set})
				assertDirsIdentical(t, ref, dir)
			}
		})
	}
	want := len(goldenShortScenarios)
	if shardGoldenFull() {
		want = len(paths)
	}
	if ran != want {
		t.Errorf("ran %d scenario files, want %d: an acceptance gate is missing", ran, want)
	}
}

// TestGoldenShardStress100kInvariance is the sharded arm of `make
// test-stress`: the 100,000-node scenario at full size, shards=6
// against the shards=1 reference, both at -parallel 8. Opt-in via
// STRESS100K like the unsharded stress tier — two more 100k campaigns
// cost minutes, and this is the scale tier sharding was built for.
//
// The conductor's window loop is deterministic, so the run's
// telemetry row carries exact counts: a change to the lookahead bounds
// or the deadline computation moves stalled / windows / merged at
// every worker count, and nothing else does. They are pinned here for
// goldenSeed; wall-clock figures for the tier are whatever
// telemetry.json says on the machine at hand.
func TestGoldenShardStress100kInvariance(t *testing.T) {
	if os.Getenv("STRESS100K") == "" {
		t.Skip("set STRESS100K=1 (make test-stress) to run the sharded 100k invariance tier")
	}
	set, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "stress-100k.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ Stalled, Windows, Merged, Events uint64 }
	want := counts{Stalled: 9_391, Windows: 15_835, Merged: 25_254_090, Events: 42_080_523}
	obs.Default.EnableTelemetry()
	defer obs.Default.Disable()
	ref, six := filepath.Join(t.TempDir(), "s1"), filepath.Join(t.TempDir(), "s6")
	for _, run := range []struct{ shards, dir string }{{"1", ref}, {"6", six}} {
		t.Setenv("ETHREPRO_SHARDS", run.shards)
		report := runGoldenAt(t, specs, run.dir, 8, []*scenario.Set{set}, experiments.ScaleMedium, 1)
		rows := obs.Default.Take(experiments.ReportSeeds(report))
		if len(rows) != 1 {
			t.Fatalf("shards=%s: %d telemetry rows, want the campaign's one run", run.shards, len(rows))
		}
		for _, rt := range rows {
			if got := (counts{rt.ShardStalled, rt.ShardWindows, rt.ShardMerged, rt.Events}); got != want {
				t.Errorf("shards=%s: %+v, want %+v", run.shards, got, want)
			}
		}
	}
	assertDirsIdentical(t, ref, six)
}
