package experiments_test

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The golden-artifact invariant harness: every spec's run directory
// must be byte-identical at every point of one matrix, the runner's
// campaign-level parallelism (-parallel ∈ {1, 8}) crossed with the
// intra-run scheduler (-shards ∈ {0, 1, 2, 6}: the serial loop, or the
// conductor at that many workers), against the reference -shards 0
// -parallel 1. This promotes the manual `diff -r` gate into a
// permanent test: any change that makes an experiment's output depend
// on worker count, scheduler, or map iteration order fails here, for
// the built-in paper specs, the D1-D3 fault specs, and every shipped
// scenario file (fault schedules included). The scheduler reaches the
// campaigns through the ETHREPRO_SHARDS knob CampaignConfig falls back
// to, so the exact artifact surface of `ethrepro -shards n` is what is
// pinned.
//
// Each surface has two tests over the one matrix: the *Parallel* test
// walks the runner-parallelism axis on the serial loop (0, 8) over the
// tier's specs, the *Shard* test the conductor axis — by default the
// two-lane conductor (2, 1) and the six-lane merge under runner
// parallelism (6, 8), on the -short core only to stay inside the
// package timeout. SHARDGOLDEN=full, which `make test-shard` sets with
// a timeout sized for it, runs every point over every spec.

const goldenSeed = 977

// goldenCombo is one point of the matrix.
type goldenCombo struct {
	shards   int
	parallel int
}

func (c goldenCombo) String() string {
	return fmt.Sprintf("shards=%d parallel=%d", c.shards, c.parallel)
}

// goldenFull reports whether the exhaustive sweep was requested
// (SHARDGOLDEN=full, the make test-shard lane).
func goldenFull() bool { return os.Getenv("SHARDGOLDEN") == "full" }

// goldenParallelPoints is the runner-parallelism axis on the serial loop.
var goldenParallelPoints = []goldenCombo{{0, 8}}

// goldenConductorPoints is the conductor axis: its corners by default,
// every worker count crossed with -parallel {1, 8} under SHARDGOLDEN=full.
func goldenConductorPoints() []goldenCombo {
	if goldenFull() {
		return []goldenCombo{{1, 1}, {1, 8}, {2, 1}, {2, 8}, {6, 1}, {6, 8}}
	}
	return []goldenCombo{{2, 1}, {6, 8}}
}

// assertGoldenMatrix runs specs at each of points and at the reference
// (0, 1); every run directory must be byte-identical to the
// reference's. The reference runs with telemetry on, which also holds
// every declared spec cost to the events its runs dispatched.
func assertGoldenMatrix(t *testing.T, specs []experiments.Spec, points []goldenCombo, sets []*scenario.Set) {
	t.Helper()
	ref := filepath.Join(t.TempDir(), "s0p1")
	obs.Default.EnableTelemetry()
	defer obs.Default.Disable()
	report := runGoldenAt(t, specs, ref, goldenCombo{0, 1}, sets, experiments.ScaleSmall, 2)
	rows := obs.Default.Take(experiments.ReportSeeds(report))
	obs.Default.Disable()
	assertDeclaredCosts(t, report, rows)
	for _, c := range points {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%dp%d", c.shards, c.parallel))
		runGoldenAt(t, specs, dir, c, sets, experiments.ScaleSmall, 2)
		assertDirsIdentical(t, ref, dir, c)
	}
}

// assertDeclaredCosts holds each run of a spec that declares a cost to
// within 2× of it, in engine events (a run that dispatches none counts
// as one). The costs were read at campaign seed 7; at the golden seed
// the registry's runs land between 0.88× (commit) and 1.49× (R1) of
// them.
func assertDeclaredCosts(t *testing.T, report *experiments.Report, rows map[uint64]obs.RunTelemetry) {
	t.Helper()
	for _, r := range report.Results {
		if r.Spec.Cost == 0 {
			continue
		}
		events := max(rows[r.Seed].Events, 1)
		if events > 2*r.Spec.Cost || 2*events < r.Spec.Cost {
			t.Errorf("%s/%d dispatched %d events, declared cost %d: more than 2× apart",
				r.Spec.ID, r.Repeat, events, r.Spec.Cost)
		}
	}
}

// goldenShortSpecs is the -short tier: the cheap core of the registry
// plus all three dependability specs. The full tier runs everything.
var goldenShortSpecs = map[string]bool{
	"T1": true, "network": true, "T2": true,
	"D1": true, "D2": true, "D3": true,
}

// goldenShortScenarios is the -short tier's scenario subset. The
// partition-heal file is the acceptance gate for fault determinism,
// relay-compare for relay-protocol determinism; both always run.
var goldenShortScenarios = map[string]bool{
	"paper-baseline.json": true,
	"partition-heal.json": true,
	"relay-compare.json":  true,
}

// runGoldenAt executes the specs at one matrix point, scale and repeat
// count, and seals a run directory the way both front ends do
// (scenario.Seal: artifacts, the embedded scenario.json for scenario
// runs, the digest manifest) — so the invariance gate also covers the
// Merkle root. Failures inside any run are fatal: a spec that cannot
// execute has no artifact to compare. It returns the report so a
// caller that turned telemetry on can Take its runs' rows.
func runGoldenAt(t *testing.T, specs []experiments.Spec, dir string, c goldenCombo, sets []*scenario.Set, scale experiments.Scale, repeats int) *experiments.Report {
	t.Helper()
	t.Setenv("ETHREPRO_SHARDS", fmt.Sprint(c.shards))
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed:     goldenSeed,
		Scale:    scale,
		Repeats:  repeats,
		Parallel: c.parallel,
	})
	if err != nil {
		t.Fatalf("campaign at %v: %v", c, err)
	}
	st := store.NewFS(dir)
	if err := scenario.Seal(st, report, sets, nil); err != nil {
		t.Fatalf("seal run dir: %v", err)
	}
	if err := store.Verify(st); err != nil {
		t.Fatalf("sealed run dir fails verification: %v", err)
	}
	return report
}

// dirFiles returns every file under root as sorted relative paths.
func dirFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	sort.Strings(files)
	return files
}

// assertDirsIdentical compares two run directories byte for byte; c
// names the point b ran at.
func assertDirsIdentical(t *testing.T, a, b string, c goldenCombo) {
	t.Helper()
	filesA, filesB := dirFiles(t, a), dirFiles(t, b)
	if len(filesA) != len(filesB) {
		t.Fatalf("%v: run directories differ in file count: %d vs %d\n%v\n%v", c, len(filesA), len(filesB), filesA, filesB)
	}
	for i, rel := range filesA {
		if filesB[i] != rel {
			t.Fatalf("%v: run directories differ in layout: %s vs %s", c, rel, filesB[i])
		}
		da, err := os.ReadFile(filepath.Join(a, rel))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%v: %s differs from the reference run's (%d vs %d bytes)", c, rel, len(db), len(da))
		}
	}
}

// goldenBuiltinSpecs selects the built-in registry: every spec, or
// only the -short core when all is false. The relay specs R1/R2 have
// their own invariance test below so make test-relay can select them;
// running them here too would double the full tier's heaviest sweeps.
func goldenBuiltinSpecs(t *testing.T, all bool) []experiments.Spec {
	t.Helper()
	var specs []experiments.Spec
	for _, s := range experiments.Specs() {
		if s.ID == "R1" || s.ID == "R2" || (!all && !goldenShortSpecs[s.ID]) {
			continue
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		t.Fatal("no specs selected")
	}
	return specs
}

// TestGoldenBuiltinSpecsParallelInvariance runs the built-in registry
// (the full set, or the short tier under -short) on the serial loop at
// -parallel 8 and asserts byte-identical run directories.
func TestGoldenBuiltinSpecsParallelInvariance(t *testing.T) {
	assertGoldenMatrix(t, goldenBuiltinSpecs(t, !testing.Short()), goldenParallelPoints, nil)
}

// TestGoldenShardBuiltinSpecsInvariance runs the built-in registry on
// the conductor axis — by default the short core (the paper specs plus
// the dependability specs, which exercise the fault injector's
// region-keyed loss streams), under SHARDGOLDEN=full every spec.
func TestGoldenShardBuiltinSpecsInvariance(t *testing.T) {
	assertGoldenMatrix(t, goldenBuiltinSpecs(t, goldenFull()), goldenConductorPoints(), nil)
}

// runGoldenScenarios compiles each shipped scenario file that keep
// selects and asserts the matrix at points, per file in a subtest, with
// the embedded scenario.json included in the comparison — the full
// `ethrepro -scenario f.json -out dir` surface. It fails unless both
// acceptance gates ran: partition-heal.json for fault determinism,
// relay-compare.json for relay-protocol determinism.
func runGoldenScenarios(t *testing.T, keep func(name string) bool, points []goldenCombo) {
	t.Helper()
	pattern := filepath.Join("..", "..", "examples", "scenarios", "*.json")
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario files match %s", pattern)
	}
	sort.Strings(paths)
	sawPartitionHeal, sawRelayCompare := false, false
	for _, path := range paths {
		name := filepath.Base(path)
		if !keep(name) {
			continue
		}
		switch name {
		case "partition-heal.json":
			sawPartitionHeal = true
		case "relay-compare.json":
			sawRelayCompare = true
		}
		t.Run(name, func(t *testing.T) {
			set, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := set.Compile()
			if err != nil {
				t.Fatal(err)
			}
			assertGoldenMatrix(t, specs, points, []*scenario.Set{set})
		})
	}
	if !sawPartitionHeal {
		t.Error("partition-heal.json missing: the fault-determinism acceptance gate did not run")
	}
	if !sawRelayCompare {
		t.Error("relay-compare.json missing: the relay-determinism acceptance gate did not run")
	}
}

// TestGoldenScenarioArtifactsParallelInvariance runs every shipped
// scenario file (sweep variants and fault schedules included; the
// acceptance subset under -short) on the serial loop at -parallel 8.
// The 100k file runs here at small scale; its full size is the
// STRESS100K tier (stress_test.go).
func TestGoldenScenarioArtifactsParallelInvariance(t *testing.T) {
	runGoldenScenarios(t, func(name string) bool {
		return !testing.Short() || goldenShortScenarios[name]
	}, goldenParallelPoints)
}

// TestGoldenShardScenarioArtifactsInvariance runs the acceptance
// scenarios (baseline, partition-heal, relay-compare; every shipped
// file under SHARDGOLDEN=full) on the conductor axis.
func TestGoldenShardScenarioArtifactsInvariance(t *testing.T) {
	runGoldenScenarios(t, func(name string) bool {
		return goldenFull() || goldenShortScenarios[name]
	}, goldenConductorPoints())
}

// TestGoldenRelaySpecsParallelInvariance pins the relay subsystem's
// registry specs — R1's per-protocol shoot-out and R2's
// mempool-divergence sweep — to the same matrix; their conductor
// points run under SHARDGOLDEN=full (relay-compare.json covers the
// conductor's relay determinism in the plain tiers).
// Skipped under -short (each spec runs a multi-campaign sweep); the
// full tier and `make test-relay` run it.
func TestGoldenRelaySpecsParallelInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("relay golden tier runs in make test-relay and the full suite")
	}
	specs, err := experiments.Select([]string{"R1", "R2"})
	if err != nil {
		t.Fatal(err)
	}
	points := goldenParallelPoints
	if goldenFull() {
		points = append(points[:len(points):len(points)], goldenConductorPoints()...)
	}
	assertGoldenMatrix(t, specs, points, nil)
}
