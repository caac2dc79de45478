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
// at ScaleSmall and seeds 42 and 7.
var gridPins = map[string][2]string{
	"L1": {"30f3427b49bc207ebcfa978c2ca461140649c4e391e90911ad6ba291acb29cc4", "ef37efd871f961b6b3df8dd46c4146e526f186976f6a8c2bdc1c5db8370b91b6"},
	"E1": {"407b004d14dc72837fc6c2a991ae53498291bcfaa053034f0442163cd3fd1511", "7005a1795f4e0e4ef143fb0ee509ad81a90a664bb3099e2e2b02488e87091f45"},
	"A1": {"402fa04e1118a59ea24f29f2e76cf3c4e04918891942cdd5601245461d6a3e2b", "c6a1485b8e1d03d8ca9bece8eb3bbc7a37968c3be8842c08c873357e6ad7fa8f"},
	"A2": {"e9d30fb26b9cb20e9136a1c416c237f83ef44780798de62974e9b678eeacfc55", "1f2b0bf71923d8d7f274699c57c356cbf18ac7b709e118d811b04de6b58111f9"},
	"D1": {"945e33e8f6c6bc825964d43617024b578bb9e49475f16112a0aa1b5a0055a203", "61b0c1eba9b73705bd2227562e5960edbabe4ef6050228f310fad98b943cc24f"},
	"D2": {"6c0d23d699f39eb54a79870f7ea5e7fd557f1c25195abc5de38bbf7b649b1b01", "696c3d7b6c51cfca4b297855b1b4eee0438bf55b60e4443ea847b93411e61d7c"},
	"D3": {"082d9b8dac45d9802b08fa99135eafafb6591d06f81f8c0c43b080f1a302ff67", "b530de00da3d4b0ff7384322bdffe776bf979039a1484b1c07a998dbbf919638"},
	"R1": {"8a3fa6def8b74e1d91571909ab97c17a1b348f3520d54b1a25eaa99c574960d6", "fabf16eb33265c9a37a35aee9e7cbc6699ff2529da3c46b1f2b7aa00eaad62a8"},
	"R2": {"d3b939c944c03a07d51e7f70fcdfc01bdb4a949badeb206298d8f68e7860fc69", "873506af8e91b0ca36b61a0e7cbb1770e27ff215992a7b8923018a26a61a81d7"},
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
