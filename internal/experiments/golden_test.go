package experiments_test

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The golden-artifact invariant harness: every spec's run directory
// must be byte-identical at -parallel 1 and -parallel 8. This promotes
// the hot-path overhaul's manual `diff -r` gate into a permanent test:
// any change that makes an experiment's output depend on worker count,
// scheduling, or map iteration order fails here, for the built-in
// paper specs, the new D1-D3 fault specs, and every shipped scenario
// file (fault schedules included).

const goldenSeed = 977

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

// runGolden executes the specs at the given parallelism and seals a
// run directory the way both front ends do (scenario.Seal: artifacts,
// the embedded scenario.json for scenario runs, the digest manifest) —
// so the invariance gate also covers the Merkle root. Failures inside
// any run are fatal: a spec that cannot execute has no artifact to
// compare.
func runGolden(t *testing.T, specs []experiments.Spec, dir string, parallel int, sets []*scenario.Set) {
	t.Helper()
	runGoldenAt(t, specs, dir, parallel, sets, experiments.ScaleSmall, 2)
}

// runGoldenAt is runGolden with an explicit scale and repeat count —
// the stress tier runs the 100k scenario at its full size with a
// single repeat per parallelism setting. It returns the report so a
// caller that turned telemetry on can Take its runs' rows.
func runGoldenAt(t *testing.T, specs []experiments.Spec, dir string, parallel int, sets []*scenario.Set, scale experiments.Scale, repeats int) *experiments.Report {
	t.Helper()
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed:     goldenSeed,
		Scale:    scale,
		Repeats:  repeats,
		Parallel: parallel,
	})
	if err != nil {
		t.Fatalf("campaign at parallel=%d: %v", parallel, err)
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

// assertDirsIdentical compares two run directories byte for byte.
func assertDirsIdentical(t *testing.T, a, b string) {
	t.Helper()
	filesA, filesB := dirFiles(t, a), dirFiles(t, b)
	if len(filesA) != len(filesB) {
		t.Fatalf("run directories differ in file count: %d vs %d\n%v\n%v", len(filesA), len(filesB), filesA, filesB)
	}
	for i, rel := range filesA {
		if filesB[i] != rel {
			t.Fatalf("run directories differ in layout: %s vs %s", rel, filesB[i])
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
			t.Errorf("%s differs between the compared runs (%d vs %d bytes)", rel, len(da), len(db))
		}
	}
}

// TestGoldenBuiltinSpecsParallelInvariance runs the built-in registry
// (the full set, or the short tier under -short) at both parallelism
// settings and asserts byte-identical run directories.
func TestGoldenBuiltinSpecsParallelInvariance(t *testing.T) {
	var specs []experiments.Spec
	for _, s := range experiments.Specs() {
		if testing.Short() && !goldenShortSpecs[s.ID] {
			continue
		}
		if s.ID == "R1" || s.ID == "R2" {
			// The relay specs have their own invariance test below so
			// make test-relay can select them; running them here too
			// would double the full tier's heaviest sweeps.
			continue
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		t.Fatal("no specs selected")
	}
	seq, par := filepath.Join(t.TempDir(), "p1"), filepath.Join(t.TempDir(), "p8")
	runGolden(t, specs, seq, 1, nil)
	runGolden(t, specs, par, 8, nil)
	assertDirsIdentical(t, seq, par)
}

// TestGoldenScenarioArtifactsParallelInvariance compiles every shipped
// scenario file (sweep variants and fault schedules included) and
// asserts the same invariance, per file, with the embedded
// scenario.json included in the comparison — the full `ethrepro
// -scenario f.json -out dir` surface.
func TestGoldenScenarioArtifactsParallelInvariance(t *testing.T) {
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
		if testing.Short() && !goldenShortScenarios[name] {
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
			seq, par := filepath.Join(t.TempDir(), "p1"), filepath.Join(t.TempDir(), "p8")
			runGolden(t, specs, seq, 1, []*scenario.Set{set})
			runGolden(t, specs, par, 8, []*scenario.Set{set})
			assertDirsIdentical(t, seq, par)
		})
	}
	if !sawPartitionHeal {
		t.Error("partition-heal.json missing: the fault-determinism acceptance gate did not run")
	}
	if !sawRelayCompare {
		t.Error("relay-compare.json missing: the relay-determinism acceptance gate did not run")
	}
}

// TestGoldenRelaySpecsParallelInvariance pins the relay subsystem's
// registry specs — R1's per-protocol shoot-out and R2's
// mempool-divergence sweep — to the parallel-invariance contract.
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
	seq, par := filepath.Join(t.TempDir(), "p1"), filepath.Join(t.TempDir(), "p8")
	runGolden(t, specs, seq, 1, nil)
	runGolden(t, specs, par, 8, nil)
	assertDirsIdentical(t, seq, par)
}
