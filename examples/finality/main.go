// Finality: reproduce the paper's security analysis (§III-D, Fig. 7):
// how long a sequence of consecutive blocks a single pool can mine,
// observed versus theoretically expected, and what that means for the
// 12-block confirmation rule.
//
//	go run ./examples/finality [-short]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/mining"
	"repro/internal/stats"
)

// short downsizes the run for CI smoke runs (make examples).
var short = flag.Bool("short", false, "run a downscaled demo")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One paper-month of blocks, chain-level only (no network needed
	// for sequence statistics).
	blocks := uint64(201_086)
	if *short {
		blocks = 20_000
	}
	fmt.Printf("simulating one month of mining (%d blocks)...\n\n", blocks)
	// The run hands each settled height to the fold and keeps only
	// the unsettled tip of its chain.
	var fold analysis.ChainFold
	_, err := core.RunChainOnly(123, blocks, func(c *mining.Config) { c.OnSettled = fold.Settled })
	if err != nil {
		return err
	}
	seq, err := fold.Sequences()
	if err != nil {
		return err
	}
	fmt.Println(analysis.RenderSequences(seq, 6, 9))

	censor, err := analysis.CensorshipWindows(seq, 6, 13.3)
	if err != nil {
		return err
	}
	fmt.Println(analysis.RenderCensorship(censor))

	// The paper's analytic argument: a pool with share p mines k
	// consecutive blocks with probability p^k; over a month that
	// makes long censorship windows routine for the top pools.
	fmt.Println("Analytic expectations over one month (stats.ExpectedSequences):")
	for _, pool := range seq.TopPools[:2] {
		share := float64(seq.BlockCounts[pool]) / float64(seq.TotalMain)
		for _, k := range []int{8, 9, 12} {
			expected, err := stats.ExpectedSequences(share, k, seq.TotalMain)
			if err != nil {
				return err
			}
			fmt.Printf("  %-12s share %.3f: expect %6.2f sequences of %2d blocks (censor %3.0f s)\n",
				pool, share, expected, k, float64(k)*13.3)
		}
	}
	fmt.Println()
	fmt.Println("A pool that mines 12 consecutive blocks can rewrite anything the")
	fmt.Println("12-confirmation rule considers final. The paper's point: with")
	fmt.Println("today's pool concentration these sequences are not astronomically")
	fmt.Println("rare — Ethermine managed 8 in a row four times in one month, and")
	fmt.Println("a 14-block sequence exists in the historical chain.")
	return nil
}
