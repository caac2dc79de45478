package core

import (
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/mining"
	"repro/internal/sim"
)

// TestChainOnlyGoldenHashes pins the genesis hash and the first three
// block hashes of RunChainOnly(7, 3, nil) to the values the Item-tree
// encoder produced before the append-only RLP writer replaced it: the
// header encoding, the roots and the mining RNG stream are all in them.
func TestChainOnlyGoldenHashes(t *testing.T) {
	res, err := RunChainOnly(7, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"0x6f00074e1e2641634158c96ebcdd4ff5b8606d7aa265fbbcb3ac6f1ddca62471",
		"0x86600a6950d155073d9a472d30ac21868903cdebe2aa814abe9cc6b85daf395e",
		"0xdd13694441dac608586f2cba0d34d88f53cd4e8c2b6401217fda177121e56426",
		"0xe9e50d6847cdb59de8707c552c07258b648e8de7d478303cc757b383d8684fbb",
	}
	wantSizes := []int{148, 203, 203, 201}
	main := res.Tree.MainChain()
	if len(main) != len(want) || res.Tree.Genesis().String() != want[0] {
		t.Fatalf("main chain of %d blocks, genesis %s", len(main), res.Tree.Genesis())
	}
	for i, b := range main {
		if got := b.Hash().String(); got != want[i] {
			t.Errorf("block %d: hash %s, want %s", i, got, want[i])
		}
		if got := b.EncodedSize(); got != wantSizes[i] {
			t.Errorf("block %d: %d bytes, want %d", i, got, wantSizes[i])
		}
	}
}

// TestChainOnlyTwoWithholdersDeterministic: with two withholding pools
// one public block can threaten both private chains, and each release
// draws from the mining RNG. The release order used to follow a map
// iteration, so the first of twenty same-seed repeats already differed.
func TestChainOnlyTwoWithholdersDeterministic(t *testing.T) {
	run := func() *ChainOnlyResult {
		res, err := RunChainOnly(5, 3000, func(c *mining.Config) {
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
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if len(first.MultiVersionTuples) == 0 || len(first.PublishTimes) < 3000 {
		t.Fatalf("run too thin to compare: %d tuples, %d publish times", len(first.MultiVersionTuples), len(first.PublishTimes))
	}
	for i := 1; i < 20; i++ {
		again := run()
		if again.Tree.Head().Hash() != first.Tree.Head().Hash() {
			t.Fatalf("repeat %d: head %s, first run %s", i, again.Tree.Head().Hash().Short(), first.Tree.Head().Hash().Short())
		}
		if !reflect.DeepEqual(again.PublishTimes, first.PublishTimes) {
			t.Fatalf("repeat %d: publish times differ", i)
		}
		if !reflect.DeepEqual(again.MultiVersionTuples, first.MultiVersionTuples) {
			t.Fatalf("repeat %d: multi-version tuples differ", i)
		}
	}
}
