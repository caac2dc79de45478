package core

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/mining"
	"repro/internal/sim"
	"repro/internal/types"
)

// settledMutators are the pool models the settled path is pinned on.
var settledMutators = []func(*mining.Config){
	// The default model: forks, uncles, empty blocks and one-miner
	// multi-versions.
	nil,
	// C1's and S2's stripped model: the mining race alone.
	func(c *mining.Config) {
		for i := range c.Pools {
			c.Pools[i].EmptyBlockProb = 0
			c.Pools[i].MultiVersionProb = 0
			c.Pools[i].SwitchDelayMean = 0
		}
		c.GatewayDelay = 0
	},
	// The §V restricted-uncle rule.
	func(c *mining.Config) { c.Uncles.RestrictOneMinerUncles = true },
	// Two withholders: the model's deepest reorgs, released in bursts.
	func(c *mining.Config) {
		pool := func(name string, share float64, region geo.Region, withhold bool) mining.PoolConfig {
			return mining.PoolConfig{
				Name: name, HashrateShare: share, GatewayRegions: []geo.Region{region},
				MultiVersionProb: 0.05, MultiVersionSameTxProb: 0.5,
				SwitchDelayMean: 300 * sim.Millisecond, Withholder: withhold,
			}
		}
		c.Pools = []mining.PoolConfig{
			pool("A", 0.3, geo.EasternAsia, true),
			pool("B", 0.3, geo.NorthAmerica, true),
			pool("C", 0.4, geo.WesternEurope, false),
		}
	},
}

// settledMaxBlocks caps a fuzzed run's length.
const settledMaxBlocks = 20_000

// FuzzSettledMainChain pins the settled path against the whole tree it
// replaces: the same seed, block count and pool model run once keeping
// every block and once handing settled blocks to OnSettled. The sink's
// stream must be the whole tree's MainChain, hash for hash, with the
// same engine counts and both RNG streams at the same position
// afterwards — retiring a height draws nothing and schedules nothing.
// The corpus covers one block, runs below, at and one past the settle
// depth, runs around the first retired batch (2×SettleDepth heights),
// one that is no multiple of the batch, and 20,000 blocks, under each
// pool model.
func FuzzSettledMainChain(f *testing.F) {
	for _, blocks := range []uint64{1, 40, chain.SettleDepth, chain.SettleDepth + 1,
		2*chain.SettleDepth - 1, 2 * chain.SettleDepth, 2*chain.SettleDepth + 1, 1000, settledMaxBlocks} {
		for m := range settledMutators {
			f.Add(uint64(7)+blocks, blocks, uint8(m))
		}
	}
	f.Fuzz(func(t *testing.T, seed, blocks uint64, mutator uint8) {
		if blocks == 0 || blocks > settledMaxBlocks {
			blocks = 1 + blocks%settledMaxBlocks
		}
		mutate := settledMutators[int(mutator)%len(settledMutators)]
		whole, wholeEngine, wholeRNG, err := runChainOnly(seed, blocks, mutate)
		if err != nil {
			t.Fatal(err)
		}
		var stream []types.Hash
		settled, engine, rng, err := runChainOnly(seed, blocks, func(c *mining.Config) {
			if mutate != nil {
				mutate(c)
			}
			c.OnSettled = func(h chain.Height) { stream = append(stream, h.Main.Hash()) }
		})
		if err != nil {
			t.Fatalf("settled run: %v", err)
		}
		if settled.Tree != nil || settled.MultiVersionTuples != nil {
			t.Fatal("settled run returned a tree or tuples")
		}
		main := whole.Tree.MainChain()
		if len(stream) != len(main) {
			t.Fatalf("sink saw %d blocks, whole tree's main chain has %d", len(stream), len(main))
		}
		for i, b := range main {
			if stream[i] != b.Hash() {
				t.Fatalf("height %d: sink saw %s, whole tree %s", i, stream[i].Short(), b.Hash().Short())
			}
		}
		if got, want := engine.Stats(), wholeEngine.Stats(); got != want {
			t.Fatalf("engine stats %+v, whole tree %+v", got, want)
		}
		if got, want := rng.Uint64(), wholeRNG.Uint64(); got != want {
			t.Fatalf("RNG position differs: next draw %x, whole tree %x", got, want)
		}
	})
}

// settledHeapSlack is how far TestSettledChainHeapFlat lets the live
// heap of a 200,000-block settled run stand above that of a
// 20,000-block run. A settled run holds a window of 64–128 heights
// (about 150 blocks with their index entries, height slots and the
// engine's pending visibility updates). A longer run can push one of
// its slices or maps through one more doubling: the index map, whose
// deleted slots come back only when it rehashes, measures +21 KB
// between the two lengths and then stays put (400,000 blocks read the
// same as 200,000). Seeds 1–11 read −21 to +40 KB in all. 64 KiB
// covers that; a slab that kept its row and height slot for each
// retired block (≈80 B) would add 14 MB over the 180,000 extra blocks.
const settledHeapSlack = 64 << 10

// TestSettledChainHeapFlat holds the settled path's memory flat in the
// run's length: the live heap when the last height is mined (OnDone,
// before the engine drains), default pool model, at 20,000 and at
// 200,000 blocks. Not parallel: the readings are process-wide.
func TestSettledChainHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-block run")
	}
	heapAt := func(blocks uint64) int64 {
		var live uint64
		_, err := RunChainOnly(7, blocks, func(c *mining.Config) {
			c.OnSettled = func(chain.Height) {}
			c.OnDone = func(sim.Time) { live = liveHeap() }
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(live)
	}
	short, long := heapAt(20_000), heapAt(200_000)
	t.Logf("live heap at the last height: %d B at 20k blocks, %d B at 200k (%+d)", short, long, long-short)
	if long-short > settledHeapSlack {
		t.Fatalf("200k-block settled run holds %d B more than a 20k one, slack %d", long-short, settledHeapSlack)
	}
}

// foldHeapSlack is how far TestSettledChainFoldHeapFlat lets a
// 200,000-block fold-fed run's window — the live heap at the last
// height less the results the fold returns — stand above a
// 20,000-block run's. It is settledHeapSlack's bound for the same
// reason: the fold adds a window of 7 pending heights and the open
// fork roots, a few KB whatever the length, to the tree's 64–128
// heights, and seeds 1–8 read +6 to +41 KB in all. Anything the fold
// kept per height would cost at least a hash (32 B) for each of the
// 180,000 extra blocks, 5.8 MB; a kept block skeleton (≈200 B) 36 MB.
const foldHeapSlack = 64 << 10

// TestSettledChainFoldHeapFlat holds the chain spec's settled path
// flat in the run's length: a default-model run feeding an
// analysis.ChainFold, at 20,000 and at 200,000 blocks. Its results
// grow with the chain (Fig. 7's run lengths and Table III's branches,
// ≈17 B per block), so the gate reads the live heap when the last
// height is mined (OnDone) less the live heap of those results alone
// once the run is over: what the tree, the engine and the fold's
// window hold. Not parallel: the readings are process-wide.
func TestSettledChainFoldHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-block run")
	}
	window := func(blocks uint64) int64 {
		fold := &analysis.ChainFold{}
		var atDone uint64
		_, err := RunChainOnly(7, blocks, func(c *mining.Config) {
			c.OnSettled = fold.Settled
			c.OnDone = func(sim.Time) { atDone = liveHeap() }
		})
		if err != nil {
			t.Fatal(err)
		}
		var results [5]any
		var errs [5]error
		results[0], errs[0] = fold.EmptyBlocks()
		results[1], errs[1] = fold.Forks()
		results[2], errs[2] = fold.OneMinerForks()
		results[3], errs[3] = fold.Sequences()
		results[4], errs[4] = fold.Rewards()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		fold = nil
		held := liveHeap()
		runtime.KeepAlive(results)
		t.Logf("%d blocks: %d B live at the last height, %d B of results", blocks, atDone, held)
		return int64(atDone) - int64(held)
	}
	short, long := window(20_000), window(200_000)
	t.Logf("window: %d B at 20k blocks, %d B at 200k (%+d)", short, long, long-short)
	if long-short > foldHeapSlack {
		t.Fatalf("200k-block fold-fed run holds %d B more than a 20k one beyond its results, slack %d", long-short, foldHeapSlack)
	}
}
