package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestGridColumnsNameRows(t *testing.T) {
	for _, g := range grids {
		for _, c := range g.columns {
			o, ok := LookupOutput(c.row)
			if !ok {
				t.Errorf("grid %s: column %s names no output row", g.id, c.row)
				continue
			}
			if chain := g.base == nil; (chain && !o.Chain) || (!chain && !o.Network) {
				t.Errorf("grid %s: row %s does not run in the grid's mode (chain-only %v)", g.id, c.row, chain)
			}
		}
	}
}

func TestGridVariantLabelsUnique(t *testing.T) {
	for _, g := range grids {
		seen := map[string]bool{}
		for _, v := range g.variants {
			if v.label == "" || seen[v.label] {
				t.Errorf("grid %s: variant label %q empty or repeated", g.id, v.label)
			}
			seen[v.label] = true
		}
	}
}

func TestGridMissingMetricIsAnError(t *testing.T) {
	g := grid{id: "fake", title: "fake grid",
		blocks:   func(Scale) uint64 { return 30 },
		variants: []variant{{"only", nil}},
		columns:  []column{{"forks", "main_blocks", ""}, {"forks", "no_such_key", ""}},
	}
	_, err := g.run(1, ScaleSmall)
	if err == nil {
		t.Fatal("a column naming a metric its row does not emit must fail the grid")
	}
	for _, want := range []string{"fake", "only", "forks", "no_such_key"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// gridRename maps each moved spec's metric keys, as the spec emitted
// them before it became a grid, to the grid key holding the same
// value. Keys absent from the grid are in gridConstants.
var gridRename = map[string]map[string]string{
	"L1": perVariant([]string{"standard", "restricted"},
		map[string]string{"recognized": "recognized_fraction", "uncles": "uncle_blocks"}),
	"E1": perVariant([]string{"today", "spread"},
		map[string]string{"median_s": "inclusion_median_s", "p90_s": "inclusion_p90_s"}),
	"A1": perVariant([]string{"sqrt-push", "push-all", "announce-only"},
		map[string]string{"median_ms": "median_ms", "receptions": "whole_mean", "mb": "mb"}),
	"A2": perVariant([]string{"paper", "dispersed"}, map[string]string{"EA": "EA_share"}),
	"D1": merge(perVariant([]string{"healthy", "faulted"}, map[string]string{"median_ms": "median_ms", "p99_ms": "p99_ms"}),
		map[string]string{"availability": "faulted_availability", "crashes": "faulted_crashes",
			"dropped_messages": "faulted_dropped_messages"}),
	"D2": merge(perVariant([]string{"healthy", "partitioned"}, map[string]string{"fork_rate": "fork_rate"}),
		map[string]string{"partition_s": "partitioned_partition_s", "dropped_messages": "partitioned_dropped_messages",
			"max_quiet_gap_s": "partitioned_max_quiet_gap_s"}),
	"D3": merge(perVariant([]string{"static", "moderate", "heavy"}, map[string]string{"median_ms": "median_ms", "p99_ms": "p99_ms"}),
		perVariant([]string{"moderate", "heavy"}, map[string]string{"joins": "joins", "leaves": "leaves"})),
	"R1": merge(perVariant([]string{"sqrt-push", "push-all", "announce-only", "compact", "hybrid"},
		map[string]string{"median_ms": "median_ms", "mb": "total_mb", "kb_per_block": "kb_per_block"}),
		map[string]string{"compact_hit_rate": "compact_reconstruct_hit_rate"}),
	"R2": perVariant([]string{"p00", "p15", "p30", "p60"}, map[string]string{"median_ms": "median_ms",
		"kb_per_block": "kb_per_block", "hit_rate": "reconstruct_hit_rate", "fallbacks": "reconstruct_fallback"}),
	// W1 is no grid, but reads the withholding row in place of the
	// detector; its keys did not change.
	"W1": perVariant([]string{"honest", "attacker"}, map[string]string{"runs": "runs", "flagged": "flagged"}),
}

// gridConstants are the keys the grids dropped: each was a constant by
// construction before, so the grid has nothing to measure for it.
var gridConstants = map[string]map[string]struct {
	value float64
	why   string
}{
	"D3": {
		"static_joins":  {0, "the static tier injects no faults, so it has no availability row"},
		"static_leaves": {0, "the static tier injects no faults, so it has no availability row"},
	},
}

// gridPins is the SHA-256 of each moved spec's metrics before it became
// a grid (sorted key=value lines, values in shortest round-trip form),
// at ScaleSmall and seeds 42 and 7, on the region-lane schedule every
// -shards value runs. The specs that send messages (all but L1 and W1)
// were re-recorded under latency model version 3.
var gridPins = map[string][2]string{
	"L1": {"30f3427b49bc207ebcfa978c2ca461140649c4e391e90911ad6ba291acb29cc4", "ef37efd871f961b6b3df8dd46c4146e526f186976f6a8c2bdc1c5db8370b91b6"},
	"E1": {"f60bbb57fc12d8797cc6f647831d644233133dc2da0a168dcaf79f17d610e86b", "8c9978a556ff7cceb7e3ba141f40f97a7db71b24be188926595fd15042d56e82"},
	"A1": {"59bd0ccf937b5ec758f82294b292ea5cf651a4e96c4ab842927d5504aeb75053", "5bce5a1a827a252207adc8ccfca25b7221234c7a8f6825b20a83d78c5823beeb"},
	"A2": {"07af38b9ad8819dd9a63f83c0cbe83939ae22b01c5fbab1e7f09ce256735bcf5", "1c85e9c3fb22d4a460341e5027397880323ce8a3ba9e382a5b01f53127720aac"},
	"D1": {"01e104e237fb7d7f8a1dd1f41a25d3bacdd0812559af2b02bf367604e0c21d83", "5141dedb7488267582e67007bcb62d2f12f046684731fb9a727e2e0e12682eba"},
	"D2": {"26f936ea198b0e50494a28f56b766154714139bf4749e4239501ce69892c160f", "4935493a0ea124c89ae2d59b317515f40905fb1a78239597a59e371cee879460"},
	"D3": {"b9e60cb95dee58cd8920ab1ac6736b3a0305744e6d1f3c78830134556f804f77", "389f8d3d4b3bc002034d5c5f97aab69b55b92d5f6be2f582a76b8e4a3220e42d"},
	"R1": {"b3f4b43b0920e1ee20fae64d7d65df7e2ed45eb3120c093564a1317fc59b2624", "789087ced27a9aa9e05923c30d28f688c1d722725ed8aa95277d9921e52a6f5b"},
	"R2": {"db68bcfee88713695c942512cc84537acabd4f2377564e64f78de06a89224d0e", "f206e035d7bee9f7ac6ee73cbad158ea5236f1e89c84ce74c63686a8b0320dd6"},
	"W1": {"8926831b8c804d0614262b725c8771117691969ce3dbe2de3d9afb1639c34ab7", "9b7c96730c8a449453a7ecf9cb1052bd540152360d3379f44dcd075eeab51fc7"},
}

// perVariant prefixes each old → new key pair with every label.
func perVariant(labels []string, keys map[string]string) map[string]string {
	m := map[string]string{}
	for _, l := range labels {
		for old, key := range keys {
			m[l+"_"+old] = l + "_" + key
		}
	}
	return m
}

func merge(a, b map[string]string) map[string]string {
	for k, v := range b {
		a[k] = v
	}
	return a
}

// pinDigest hashes a metric map the way gridPins were recorded.
func pinDigest(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + strconv.FormatFloat(m[k], 'g', -1, 64) + "\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestGridMetricsPinned holds every moved spec's metrics, read back
// through gridRename and gridConstants, bit-equal to the spec's output
// before it became a grid. Swapping two variants' mutations moves the
// digest. The workload grids (E1, R1, R2) run only in the full suite.
func TestGridMetricsPinned(t *testing.T) {
	for _, g := range grids {
		if _, ok := gridPins[g.id]; !ok {
			t.Errorf("grid %s has no pin", g.id)
		}
	}
	for _, id := range slices.Sorted(maps.Keys(gridPins)) {
		t.Run(id, func(t *testing.T) {
			if slices.ContainsFunc(grids, func(g grid) bool {
				return g.id == id && g.base != nil && g.base(1, ScaleSmall).Workload != nil
			}) {
				skipInShort(t)
			}
			spec, _ := Lookup(id)
			for i, seed := range []uint64{42, 7} {
				var m map[string]float64
				if seed == 42 {
					m = specOutcomes(t, id)[id].Metrics
				} else {
					outs, err := spec.Run(seed, ScaleSmall)
					if err != nil {
						t.Fatal(err)
					}
					m = outs[0].Metrics
				}
				old := map[string]float64{}
				for before, after := range gridRename[id] {
					v, ok := m[after]
					if !ok {
						t.Fatalf("seed %d: %s emits no %s (was %s)", seed, id, after, before)
					}
					old[before] = v
				}
				for k, c := range gridConstants[id] {
					old[k] = c.value
				}
				if got := pinDigest(old); got != gridPins[id][i] {
					t.Errorf("seed %d: metrics digest %s, pinned %s", seed, got, gridPins[id][i])
				}
			}
		})
	}
}
