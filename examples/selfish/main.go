// Selfish: reproduce the paper's two previously undocumented selfish
// behaviors — empty-block mining (§III-C3, Fig. 6) and one-miner forks
// (§III-C5) — then apply the paper's proposed mitigation (§V: reject
// uncles whose miner already owns the main block at that height) and
// show it removes the one-miner reward.
//
//	go run ./examples/selfish [-short]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/mining"
)

// short downsizes both runs for CI smoke runs (make examples).
var short = flag.Bool("short", false, "run a downscaled demo")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func analyze(restrict bool) error {
	label := "standard protocol"
	if restrict {
		label = "restricted uncle rule (paper §V)"
	}
	blocks := uint64(40_000)
	if *short {
		blocks = 10_000
	}
	// The run hands each settled height to the fold and keeps only
	// the unsettled tip of its chain.
	var fold analysis.ChainFold
	_, err := core.RunChainOnly(99, blocks, func(c *mining.Config) {
		c.Uncles.RestrictOneMinerUncles = restrict
		c.OnSettled = fold.Settled
	})
	if err != nil {
		return err
	}
	fmt.Printf("=== %s (%d blocks) ===\n", label, blocks)

	empty, err := fold.EmptyBlocks()
	if err != nil {
		return err
	}
	fmt.Println(analysis.RenderEmptyBlocks(empty, 8))

	oneMiner, err := fold.OneMinerForks()
	if err != nil {
		return err
	}
	fmt.Println(analysis.RenderOneMinerForks(oneMiner))
	return nil
}

func run() error {
	if err := analyze(false); err != nil {
		return err
	}
	if err := analyze(true); err != nil {
		return err
	}
	fmt.Println("Under the restricted rule, one-miner versions are no longer")
	fmt.Println("rewarded as uncles: mining several versions of one's own block")
	fmt.Println("stops paying, reclaiming the ~1% of network mining power the")
	fmt.Println("paper estimates is burned on these forks.")
	return nil
}
