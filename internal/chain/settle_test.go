package chain

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/types"
)

// settleTo extends cur to height n with heavy blocks, calling Settle
// after each one like a settled run does, and returns the new tip.
func settleTo(t *testing.T, tree *BlockTree, cur *types.Block, n uint64, sink func(Height)) *types.Block {
	t.Helper()
	for cur.Header.Number < n {
		cur = mkBlock(cur, "Ethermine", 1000, 0)
		mustAdd(t, tree, cur)
		tree.Settle(sink)
	}
	return cur
}

// TestSettleStreamsMainChain: Settle hands the heights to the sink in
// height order, a batch at a time, each with its main-chain block and
// all its blocks, and drops every block at the retired heights, side
// blocks included; Flush hands over the stored tail and completes the
// stream.
func TestSettleStreamsMainChain(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	var stream []*types.Block
	var side1 []*types.Block
	sink := func(h Height) {
		stream = append(stream, h.Main)
		if h.Main.Header.Number == 1 {
			side1 = append(side1, h.Blocks...)
		}
	}
	side := mkBlock(g, "Sparkpool", 500, 0)
	mustAdd(t, tree, side)
	head := settleTo(t, tree, g, 2*SettleDepth-1, sink)
	if len(stream) != 0 || tree.Base() != 0 {
		t.Fatalf("retired %d blocks below %d heights", len(stream), 2*SettleDepth)
	}
	head = settleTo(t, tree, head, 3*SettleDepth, sink)
	if got, want := tree.Base(), uint64(SettleDepth+1); got != want {
		t.Fatalf("base %d after the first batch, want %d", got, want)
	}
	if tree.Has(side.Hash()) || tree.Has(g.Hash()) || tree.Len() != 2*SettleDepth {
		t.Fatalf("retired heights still stored: side %v genesis %v, %d blocks", tree.Has(side.Hash()), tree.Has(g.Hash()), tree.Len())
	}
	if len(side1) != 2 || side1[0] != side || side1[1] != stream[1] {
		t.Fatalf("height 1 handed over as %d blocks, want the side block then the main one", len(side1))
	}
	tail := tree.MainChain()
	tree.Flush(sink)
	if got := stream[len(stream)-len(tail):]; !slices.Equal(got, tail) {
		t.Fatal("Flush handed over a different tail than the stored main chain")
	}
	if len(stream) != 3*SettleDepth+1 || stream[0] != g || stream[len(stream)-1] != head {
		t.Fatalf("stream of %d blocks", len(stream))
	}
	for i, b := range stream {
		if b.Header.Number != uint64(i) || (i > 0 && b.Header.ParentHash != stream[i-1].Hash()) {
			t.Fatalf("stream broken at %d", i)
		}
	}
}

// TestSettleRefusesReorgBelowSettled builds by hand what no mining
// configuration reaches (a withholder's lead is capped at 4): a side
// branch forking 54 heights below the settled height, light enough to
// stay off the main chain while the main chain settles past its fork
// point, then made heavier. The tree refuses the block with a
// *ReorgError instead of moving the head onto a branch whose base it
// has already handed to the sink. A block on a retired side block and
// a miner parked below the window are refused the same way, while a
// heavier branch hanging off the settled tip itself is taken.
func TestSettleRefusesReorgBelowSettled(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	sink := func(Height) {}
	fork := settleTo(t, tree, g, 10, sink)
	var sideBlocks []*types.Block
	side := fork
	for side.Header.Number < 100 {
		side = mkBlock(side, "Sparkpool", 1, 0)
		mustAdd(t, tree, side)
		sideBlocks = append(sideBlocks, side)
	}
	tip := settleTo(t, tree, fork, SettleDepth, sink)
	// Hangs off the main block at SettleDepth, the tip the first batch
	// will settle.
	offTip := mkBlock(tip, "Nanopool", 1, 0)
	mustAdd(t, tree, offTip)
	head := settleTo(t, tree, tip, 3*SettleDepth, sink)
	settled := tree.Base() - 1
	if settled != SettleDepth {
		t.Fatalf("settled height %d, want %d", settled, SettleDepth)
	}

	heavy := mkBlock(side, "Sparkpool", 1_000_000, 0)
	_, err := tree.Add(heavy)
	var re *ReorgError
	if !errors.As(err, &re) {
		t.Fatalf("heavier branch forking at height %d: got %v, want a *ReorgError", fork.Header.Number, err)
	}
	if re.Settled != settled || re.Depth <= head.Header.Number-settled || re.Block != heavy.Hash() {
		t.Fatalf("error %+v: want settled %d and depth past %d", re, settled, head.Header.Number-settled)
	}
	if tree.Head() != head || tree.Has(heavy.Hash()) {
		t.Fatal("refused block moved the head or was stored")
	}

	_, err = tree.Add(mkBlock(sideBlocks[20], "Sparkpool", 1_000_000, 1))
	if !errors.As(err, &re) || re.Depth != head.Header.Number-sideBlocks[20].Header.Number {
		t.Fatalf("block on a retired side block: %v", err)
	}
	if _, err = tree.MinerParent(sideBlocks[20].Hash(), DefaultUncleRules().MaxDepth); !errors.As(err, &re) {
		t.Fatalf("miner on a retired block: %v", err)
	}
	if _, err = tree.MinerParent(sideBlocks[len(sideBlocks)-1].Hash(), 40); !errors.As(err, &re) {
		t.Fatalf("miner whose window reaches a retired height: %v", err)
	}
	if b, err := tree.MinerParent(head.Hash(), DefaultUncleRules().MaxDepth); err != nil || b != head {
		t.Fatalf("miner on the head: %v", err)
	}

	if _, err := tree.Add(mkBlock(offTip, "Nanopool", 1_000_000, 0)); err != nil {
		t.Fatalf("heavier branch off the settled tip: %v", err)
	}
	if tree.Head().Header.ParentHash != offTip.Hash() {
		t.Fatal("head did not move to the branch off the settled tip")
	}
}
