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
// were re-recorded under model versions 3 and 4.
var gridPins = map[string][2]string{
	"L1": {"30f3427b49bc207ebcfa978c2ca461140649c4e391e90911ad6ba291acb29cc4", "ef37efd871f961b6b3df8dd46c4146e526f186976f6a8c2bdc1c5db8370b91b6"},
	"E1": {"ebde8948e2f49f8a54020cfd0eaf85bff980c2777ac0d24455bdb8d95ec1c9d2", "aa046f8789a91477362a2565ff4520869343e44febc612ed54d50af8417f3439"},
	"A1": {"abd9a86cd7afa3baf8670dffd90c3f2f4bb5bb478f262a88f037550a7a985997", "3a3f8fdf83dff4273e28422039e59d9c9dc29532e8fb502780ec54920eae107a"},
	"A2": {"2a53b5c3e3fe23136ec5d6a0166fcfd7a5caa10b75b9fa42358686132de1917e", "0b462e4227fa8a5156279766fdc099aa6426d7693dfc7e46641fe33d4f691f18"},
	"D1": {"0933015f2ddb47fdf1694f7e30b2ac0a98c8aedd6d436ed1bd2b9b8b2433fb5d", "f1e1a87b8cbc68e4e4817763dd11ba49bbab39c6630b40bb731c9e2ea9dd94a1"},
	"D2": {"6c52be19f330688bb4bfe6a6d157451c149933d72c6d5cdc05e5fc99cc44f8eb", "7d1ae6766f7ad8a2d5cb8b65d4aec7d712fc50bbde4cb44ae6d6d362e43959d8"},
	"D3": {"51de0264d8a1b26aa5a3d0a278e0402d6640b306361f599469464a79672e4113", "a002a470289f7645a9c02273e6daf27de5dcff400dcbfdb822ac4c4453d0cd7b"},
	"R1": {"ab2d7bf0787e51ef0abc5d6a870193e8e31f34242d67809e11b4ece9acc0d092", "aaa6d829b0a58c8bcd7f9d551d88de4e8dd414f3bfc0b20ba7e2241602ba138c"},
	"R2": {"c0fe6c0bb6da3538c7070e6a653b84b5abee371df86295378829febd6b1965ab", "8614b8954a6459fe5737eeb9033f7dc82cbc7ace41b03f93949dcb0a4faebcf3"},
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
