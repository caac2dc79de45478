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
// -shards value runs.
var gridPins = map[string][2]string{
	"L1": {"30f3427b49bc207ebcfa978c2ca461140649c4e391e90911ad6ba291acb29cc4", "ef37efd871f961b6b3df8dd46c4146e526f186976f6a8c2bdc1c5db8370b91b6"},
	"E1": {"e40cd2223303f6cb3b76a3ed078f51e8b84465b740c4dc10f504ee935bf264e3", "443724fd84fdb77deb9d5c6cff50c0728f88a67f2388049242007ad5af38b84f"},
	"A1": {"d0902c4f1e89b88e24c8b836de123c3b8ca31ddf3d66937e31a4fd158747060d", "8ed1173b6d0755319bac3026c71e7d570b1f767e541135b4cffc3833ebc4155d"},
	"A2": {"48e1868bb6a1049dc2ec663bebb148430f73a2c2a7fb02129930438a989d1379", "1c4a39eea526c7283e63cf145098006841f4ac77c3ab015465561fc620a868ce"},
	"D1": {"6451f8a99efca6ee0991114d085c9890c905fba2745d381e98ed91ebe1307d2c", "7aeaa6c415ea9523876e7a1ed55ccd2a51167473f2cc034573c43361a24c4e35"},
	"D2": {"0a05b5eda26f7b4089f4cfeaf6efd0b7d6f77de8d111b5d87682211583b53705", "b348b63b25fda2652a05fdcab9a1baefc7bdbd013bed497f659410847723f667"},
	"D3": {"8a447fa3b43f520446eccee44fb7a96f24451eead0c6040912007864d6149ccd", "73239717b4ba4bd541811db66d5bd6370ab96506902f8cb11fe0f6b4949a012d"},
	"R1": {"aca3aa8cd641784cec198a44a59f298b397d688dcd791678059afb1237f0704c", "a14bdeaa9b08be4a5532cd99fa51d8547970c05c141d3b2e4221268648049cc7"},
	"R2": {"fabd3d0ff77d2ca28871f141ad2be0cc8178188cf0d828db3d140ff4f65340f9", "b7a7c0442ac69c5bebb6272a2968f7cc14b3db32d7d2c03bf26a72228b993c51"},
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
