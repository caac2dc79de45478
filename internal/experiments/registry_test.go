package experiments

import (
	"strings"
	"testing"
)

func TestRegistryCoversEveryOutcome(t *testing.T) {
	// Every paper artifact the old ad-hoc API produced must remain
	// reachable through the registry.
	want := []string{"T1", "F1", "F2", "F3", "T2", "F4", "F5", "F6", "T3",
		"S1", "F7", "S2", "L1", "W1", "C1", "E1", "INC", "A1", "A2"}
	seen := map[string]string{}
	for _, s := range Specs() {
		if len(s.Produces) == 0 {
			t.Errorf("spec %s produces nothing", s.ID)
		}
		if s.Run == nil {
			t.Errorf("spec %s has no runner", s.ID)
		}
		for _, p := range s.Produces {
			if prev, dup := seen[p]; dup {
				t.Errorf("outcome %s claimed by both %s and %s", p, prev, s.ID)
			}
			seen[p] = s.ID
		}
	}
	for _, id := range want {
		if seen[id] == "" {
			t.Errorf("outcome %s not produced by any spec", id)
		}
	}
}

// TestSpecCostsDeclared: every registry spec, grids included, declares
// the cost the runner orders its dispatch by. The golden reference
// runs hold each value to the events a run dispatches
// (assertDeclaredCosts).
func TestSpecCostsDeclared(t *testing.T) {
	for _, s := range Specs() {
		if s.Cost == 0 {
			t.Errorf("spec %s declares no cost", s.ID)
		}
	}
}

func TestLookupByOutcomeAndSpecID(t *testing.T) {
	s, ok := Lookup("f2")
	if !ok || s.ID != "network" {
		t.Fatalf("lookup f2: %v %v", s.ID, ok)
	}
	s, ok = Lookup("CHAIN")
	if !ok || s.ID != "chain" {
		t.Fatalf("lookup CHAIN: %v %v", s.ID, ok)
	}
	if _, ok := Lookup("F99"); ok {
		t.Fatal("unknown outcome must miss")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != len(Specs()) {
		t.Fatalf("empty selection must return all: %d, %v", len(all), err)
	}
	// F1 and F3 share the network campaign: dedup to one spec, and
	// registration order is preserved.
	got, err := Select([]string{"F3", "T1", "F1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "T1" || got[1].ID != "network" {
		ids := make([]string, len(got))
		for i, s := range got {
			ids[i] = s.ID
		}
		t.Fatalf("selection: %v", ids)
	}
	if _, err := Select([]string{"nope"}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown id must fail with the known list, got %v", err)
	}
}

func TestRegisterRuntimeSpecs(t *testing.T) {
	noop := func(uint64, Scale) ([]*Outcome, error) { return nil, nil }
	if _, err := Merge(Specs(), Spec{ID: "", Run: noop}); err == nil {
		t.Error("empty ID must fail")
	}
	if _, err := Merge(Specs(), Spec{ID: "runtime-x"}); err == nil {
		t.Error("nil Run must fail")
	}
	if _, err := Merge(Specs(), Spec{ID: "network", Run: noop}); err == nil {
		t.Error("duplicate spec ID must fail")
	}
	if _, err := Merge(Specs(), Spec{ID: "runtime-x", Produces: []string{"F1"}, Run: noop}); err == nil {
		t.Error("outcome ID collision must fail")
	}
	merged, err := Merge(Specs(), Spec{ID: "runtime-x", Produces: []string{"runtime-x/out"}, Run: noop})
	if err != nil {
		t.Fatalf("valid runtime spec rejected: %v", err)
	}
	if _, ok := LookupIn(merged, "runtime-x/out"); !ok {
		t.Error("merged spec not selectable by outcome ID")
	}
	if _, ok := Lookup("runtime-x"); ok {
		t.Error("Merge must not touch the registry")
	}
	if _, err := Merge(merged, Spec{ID: "RUNTIME-X", Run: noop}); err == nil {
		t.Error("case-insensitive duplicate must fail")
	}
}
