package scenario

import (
	"context"
	"errors"
	"io/fs"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

// failingStore fails the n-th Put (1-based) and every one after it,
// the way a full disk or a killed process cuts a seal short.
type failingStore struct {
	store.Store
	n int
}

func (f *failingStore) Put(name string, data []byte) error {
	if f.n--; f.n <= 0 {
		return errors.New("injected put failure")
	}
	return f.Store.Put(name, data)
}

// TestSealInterruptedLeavesNoManifest: a run directory that is sealed
// again and interrupted part-way must not keep the earlier manifest —
// it would then look sealed while holding a mix of old and new blobs,
// and fail verification with a digest mismatch instead of saying what
// happened. "Has a manifest" must mean "the last seal finished".
func TestSealInterruptedLeavesNoManifest(t *testing.T) {
	specs, err := experiments.Select([]string{"T1"})
	if err != nil {
		t.Fatal(err)
	}
	campaign := func(seed uint64) *experiments.Report {
		report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{Seed: seed, Scale: experiments.ScaleSmall})
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	first, second := campaign(1), campaign(2)
	for name, st := range map[string]store.Store{"fs": store.NewFS(t.TempDir()), "mem": store.NewMem()} {
		t.Run(name, func(t *testing.T) {
			// Every cut point up to the manifest write itself: T1 seals
			// four blobs and then the manifest, the fifth Put.
			for n := 1; n <= 5; n++ {
				if err := Seal(st, first, nil, nil); err != nil {
					t.Fatal(err)
				}
				if err := store.Verify(st); err != nil {
					t.Fatalf("complete seal does not verify: %v", err)
				}
				if err := Seal(&failingStore{Store: st, n: n}, second, nil, nil); err == nil {
					t.Fatalf("seal survived a failure at put %d", n)
				}
				if _, err := st.Get(store.ManifestFile); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("cut at put %d: stale manifest still present (err %v)", n, err)
				}
				if err := store.Verify(st); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("cut at put %d: verify = %v, want manifest not found", n, err)
				}
			}
			if err := Seal(st, second, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := store.Verify(st); err != nil {
				t.Fatalf("completed reseal does not verify: %v", err)
			}
		})
	}
}

// TestResolveRules pins the resolution rules both front ends share.
func TestResolveRules(t *testing.T) {
	set, err := Parse([]byte(`{
	  "name": "rr", "mode": "chain", "chain": {"blocks": 100, "inter_block_ms": 13300}, "repeats": 3,
	  "sweep": {"axes": [{"field": "chain.inter_block_ms", "values": [9000, 13300]}]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sets := []*Set{set}
	registry := experiments.Specs()
	for _, tc := range []struct {
		name        string
		sets        []*Set
		ids         []string
		repeats     int
		wantSpecs   int
		wantActive  int
		wantRepeats int
	}{
		{"no ids, no scenario: whole registry", nil, nil, 0, len(registry), 0, 1},
		{"no ids: the scenario's variants, its repeats", sets, nil, 0, 2, 1, 3},
		{"named repeats beat the suggestion", sets, nil, 2, 2, 1, 2},
		{"one variant keeps the scenario active", sets, []string{"rr@inter_block_ms=9000"}, 0, 1, 1, 3},
		{"scenario excluded by ids leaves no trace", sets, []string{"T1"}, 0, 1, 0, 1},
	} {
		specs, active, repeats, err := Resolve(registry, tc.sets, tc.ids, tc.repeats)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(specs) != tc.wantSpecs || len(active) != tc.wantActive || repeats != tc.wantRepeats {
			t.Errorf("%s: %d specs, %d active sets, %d repeats; want %d, %d, %d",
				tc.name, len(specs), len(active), repeats, tc.wantSpecs, tc.wantActive, tc.wantRepeats)
		}
	}
	if len(experiments.Specs()) != len(registry) {
		t.Fatal("Resolve mutated the registry")
	}
	if _, _, _, err := Resolve(registry, sets, []string{"nope"}, 0); err == nil {
		t.Error("unknown id must fail")
	}
	clash, err := Parse([]byte(`{"name": "network", "mode": "chain", "chain": {"blocks": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extend(registry, []*Set{clash}); err == nil {
		t.Error("a scenario colliding with a built-in spec must fail")
	}
}
