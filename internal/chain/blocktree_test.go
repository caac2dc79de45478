package chain

import (
	"errors"
	"testing"

	"repro/internal/types"
)

func testGenesis() *types.Block {
	return NewGenesis(131_072, 8_000_000)
}

// mkBlock builds a child block on parent with the given miner label
// and difficulty; extra disambiguates same-content siblings.
func mkBlock(parent *types.Block, miner string, difficulty, extra uint64) *types.Block {
	return types.NewBlock(types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Header.Number + 1,
		Miner:      types.AddressFromString(miner),
		MinerLabel: miner,
		TimeMillis: parent.Header.TimeMillis + 13300,
		Difficulty: difficulty,
		GasLimit:   8_000_000,
		Extra:      extra,
	}, nil, nil)
}

func mustAdd(t *testing.T, tree *BlockTree, b *types.Block) bool {
	t.Helper()
	reorg, err := tree.Add(b)
	if err != nil {
		t.Fatalf("add %s: %v", b.Hash().Short(), err)
	}
	return reorg
}

func TestBlockTreeLinearGrowth(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	cur := g
	for i := 0; i < 10; i++ {
		next := mkBlock(cur, "Ethermine", 1000, 0)
		if !mustAdd(t, tree, next) {
			t.Fatalf("block %d should extend head", i)
		}
		cur = next
	}
	if tree.MaxHeight() != 10 || tree.Len() != 11 {
		t.Fatalf("height %d len %d", tree.MaxHeight(), tree.Len())
	}
	main := tree.MainChain()
	if len(main) != 11 || main[0].Hash() != g.Hash() || main[10].Hash() != cur.Hash() {
		t.Fatal("main chain wrong")
	}
	for i := 1; i < len(main); i++ {
		if main[i].Header.ParentHash != main[i-1].Hash() {
			t.Fatalf("main chain broken at %d", i)
		}
	}
}

func TestBlockTreeErrors(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	b1 := mkBlock(g, "A", 1000, 0)
	mustAdd(t, tree, b1)
	if _, err := tree.Add(b1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
	orphan := mkBlock(b1, "A", 1000, 0)
	orphan2 := mkBlock(orphan, "A", 1000, 0)
	if _, err := tree.Add(orphan2); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("orphan: %v", err)
	}
	bad := types.NewBlock(types.Header{
		ParentHash: g.Hash(),
		Number:     5, // should be 1
		Difficulty: 1000,
	}, nil, nil)
	if _, err := tree.Add(bad); !errors.Is(err, ErrBadNumber) {
		t.Errorf("bad number: %v", err)
	}
	if _, err := tree.TotalDifficulty(types.HashBytes([]byte("nope"))); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("unknown td: %v", err)
	}
}

func TestForkChoiceHeaviestWins(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	a := mkBlock(g, "A", 1000, 0)
	b := mkBlock(g, "B", 900, 0)
	mustAdd(t, tree, a)
	if reorg := mustAdd(t, tree, b); reorg {
		t.Fatal("lighter sibling must not reorg")
	}
	if tree.Head().Hash() != a.Hash() {
		t.Fatal("head should be heavier branch")
	}
	// Extend the lighter branch past the heavier one.
	b2 := mkBlock(b, "B", 1000, 0)
	if reorg := mustAdd(t, tree, b2); !reorg {
		t.Fatal("heavier total difficulty must reorg")
	}
	if tree.Head().Hash() != b2.Hash() {
		t.Fatal("head should be new tip")
	}
	if tree.IsMain(a.Hash()) {
		t.Fatal("a fell off the main chain")
	}
	if !tree.IsMain(b.Hash()) || !tree.IsMain(b2.Hash()) {
		t.Fatal("b branch should be main")
	}
}

func TestForkChoiceFirstSeenWinsTies(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	a := mkBlock(g, "A", 1000, 0)
	b := mkBlock(g, "B", 1000, 0) // equal difficulty
	mustAdd(t, tree, a)
	if reorg := mustAdd(t, tree, b); reorg {
		t.Fatal("equal-difficulty sibling must not displace first-seen head")
	}
	if tree.Head().Hash() != a.Hash() {
		t.Fatal("first seen should remain head")
	}
}

func TestAtHeightTracksForks(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	a := mkBlock(g, "A", 1000, 0)
	b := mkBlock(g, "A", 1000, 1) // same miner, same height: one-miner fork
	mustAdd(t, tree, a)
	mustAdd(t, tree, b)
	hs := tree.AtHeight(1)
	if len(hs) != 2 || hs[0] != a.Hash() || hs[1] != b.Hash() {
		t.Fatalf("at height: %v", hs)
	}
	// Returned slice is a copy.
	hs[0] = types.Hash{}
	if tree.AtHeight(1)[0] != a.Hash() {
		t.Fatal("AtHeight must return a copy")
	}
}

func TestIsAncestor(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	a := mkBlock(g, "A", 1000, 0)
	a2 := mkBlock(a, "A", 1000, 0)
	b := mkBlock(g, "B", 1000, 0)
	mustAdd(t, tree, a)
	mustAdd(t, tree, a2)
	mustAdd(t, tree, b)
	if !tree.IsAncestor(g.Hash(), a2.Hash()) {
		t.Error("genesis must be ancestor of a2")
	}
	if !tree.IsAncestor(a.Hash(), a2.Hash()) {
		t.Error("a must be ancestor of a2")
	}
	if !tree.IsAncestor(a.Hash(), a.Hash()) {
		t.Error("a is its own ancestor")
	}
	if tree.IsAncestor(b.Hash(), a2.Hash()) {
		t.Error("sibling branch is not an ancestor")
	}
	if tree.IsAncestor(a2.Hash(), a.Hash()) {
		t.Error("descendant is not an ancestor")
	}
	unknown := types.HashBytes([]byte("?"))
	if tree.IsAncestor(unknown, a.Hash()) || tree.IsAncestor(a.Hash(), unknown) {
		t.Error("unknown hashes are never ancestors")
	}
}

func TestDeepReorg(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	// Main branch of 3 at difficulty 1000 each.
	a1 := mkBlock(g, "A", 1000, 0)
	a2 := mkBlock(a1, "A", 1000, 0)
	a3 := mkBlock(a2, "A", 1000, 0)
	for _, b := range []*types.Block{a1, a2, a3} {
		mustAdd(t, tree, b)
	}
	// Side branch of 2 with higher difficulty wins despite being
	// shorter: fork choice is total difficulty, not length.
	b1 := mkBlock(g, "B", 1800, 0)
	b2 := mkBlock(b1, "B", 1800, 0)
	mustAdd(t, tree, b1)
	if reorg := mustAdd(t, tree, b2); !reorg {
		t.Fatal("heavier shorter branch should win")
	}
	if tree.Head().Hash() != b2.Hash() {
		t.Fatal("head should be b2")
	}
	if tree.IsMain(a3.Hash()) {
		t.Fatal("old branch must be off-main")
	}
}
