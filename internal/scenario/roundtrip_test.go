package scenario

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

// shippedScenarios locates the examples/scenarios directory.
func shippedScenarios(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected at least 3 shipped scenarios, found %v", paths)
	}
	return paths
}

// TestShippedScenariosCompile keeps every example file loadable and
// compilable — the same check CI's validate-scenarios target runs.
func TestShippedScenariosCompile(t *testing.T) {
	for _, path := range shippedScenarios(t) {
		set, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		specs, err := set.Compile()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(specs) == 0 {
			t.Errorf("%s: no specs", path)
		}
	}
}

// TestRoundTripShipped is the replay contract for every shipped file:
// parse -> write run-directory artifact -> re-read -> the re-parsed
// sets equal the originals, variant for variant.
func TestRoundTripShipped(t *testing.T) {
	st := store.NewFS(t.TempDir())
	var sets []*Set
	for _, path := range shippedScenarios(t) {
		set, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	if err := WriteArtifact(st, sets); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(sets) {
		t.Fatalf("sets: %d, want %d", len(back), len(sets))
	}
	for i, set := range sets {
		got := back[i]
		if got.Path != set.Path {
			t.Errorf("path: %s, want %s", got.Path, set.Path)
		}
		if !reflect.DeepEqual(got.Base, set.Base) {
			t.Errorf("%s: base scenario changed across round-trip", set.Path)
		}
		if len(got.Variants) != len(set.Variants) {
			t.Fatalf("%s: variants %d, want %d", set.Path, len(got.Variants), len(set.Variants))
		}
		for j := range set.Variants {
			if got.Variants[j].ID() != set.Variants[j].ID() {
				t.Errorf("%s variant %d: %s, want %s", set.Path, j,
					got.Variants[j].ID(), set.Variants[j].ID())
			}
			if !reflect.DeepEqual(got.Variants[j].Scenario, set.Variants[j].Scenario) {
				t.Errorf("%s variant %s changed across round-trip", set.Path, set.Variants[j].ID())
			}
		}
	}
}

// TestRoundTripRunDirectory runs a scenario campaign end to end the
// way cmd/ethrepro does — runner, then Seal — and checks both halves
// of the run directory re-load consistently.
func TestRoundTripRunDirectory(t *testing.T) {
	doc := `{
	  "name": "rt",
	  "mode": "chain",
	  "chain": {"blocks": 400, "inter_block_ms": 13300},
	  "outputs": ["forks"],
	  "sweep": {"axes": [{"field": "chain.inter_block_ms", "values": [9000, 13300]}]}
	}`
	set, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs: %d", len(specs))
	}
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed: 42, Scale: experiments.ScaleSmall, Repeats: 2, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewFS(t.TempDir())
	if err := Seal(st, report, []*Set{set}, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Verify(st); err != nil {
		t.Fatalf("sealed scenario run dir fails verification: %v", err)
	}

	backReport, err := experiments.ReadArtifacts(st)
	if err != nil {
		t.Fatal(err)
	}
	backSets, err := ReadArtifact(st)
	if err != nil {
		t.Fatal(err)
	}
	// Every spec the scenario compiles to must appear in the report,
	// with variant-qualified outcome IDs.
	recorded := map[string]bool{}
	for _, res := range backReport.Results {
		recorded[res.Spec.ID] = true
	}
	for _, v := range backSets[0].Variants {
		if !recorded[v.ID()] {
			t.Errorf("run directory missing variant %s", v.ID())
		}
	}
	for _, s := range backReport.Summaries {
		if !regexpVariantOutcome(s.OutcomeID) {
			t.Errorf("summary outcome %s not variant-qualified", s.OutcomeID)
		}
	}
}

// regexpVariantOutcome reports whether an outcome ID has the
// "<variant>/<output>" shape.
func regexpVariantOutcome(id string) bool {
	for i := 0; i < len(id); i++ {
		if id[i] == '/' {
			return i > 0 && i < len(id)-1
		}
	}
	return false
}
