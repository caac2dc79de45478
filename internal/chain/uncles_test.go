package chain

import (
	"errors"
	"testing"

	"repro/internal/types"
)

// buildForkedTree creates:
//
//	g - a1 - a2 - a3   (main)
//	  \ b1             (side, same height as a1)
func buildForkedTree(t *testing.T) (*BlockTree, map[string]*types.Block) {
	t.Helper()
	g := testGenesis()
	tree := NewBlockTree(g)
	a1 := mkBlock(g, "A", 1000, 0)
	b1 := mkBlock(g, "B", 999, 0)
	a2 := mkBlock(a1, "A", 1000, 0)
	a3 := mkBlock(a2, "A", 1000, 0)
	for _, b := range []*types.Block{a1, b1, a2, a3} {
		mustAdd(t, tree, b)
	}
	return tree, map[string]*types.Block{"g": g, "a1": a1, "b1": b1, "a2": a2, "a3": a3}
}

func TestValidateUncleAccepted(t *testing.T) {
	tree, bs := buildForkedTree(t)
	rules := DefaultUncleRules()
	// b1 is a valid uncle for a block extending a3.
	if err := tree.ValidateUncle(rules, bs["a3"].Hash(), bs["b1"].Header, nil); err != nil {
		t.Fatalf("valid uncle rejected: %v", err)
	}
}

func TestValidateUncleRejectsAncestor(t *testing.T) {
	tree, bs := buildForkedTree(t)
	rules := DefaultUncleRules()
	if err := tree.ValidateUncle(rules, bs["a3"].Hash(), bs["a1"].Header, nil); !errors.Is(err, ErrUncleIsAncestor) {
		t.Fatalf("ancestor as uncle: %v", err)
	}
}

func TestValidateUncleRejectsTooDeep(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	side := mkBlock(g, "B", 999, 0)
	mustAdd(t, tree, side)
	cur := g
	var blocks []*types.Block
	for i := 0; i < 9; i++ {
		cur = mkBlock(cur, "A", 1000, 0)
		mustAdd(t, tree, cur)
		blocks = append(blocks, cur)
	}
	rules := DefaultUncleRules()
	// Side block at height 1; a block extending blocks[6] (height 8)
	// is exactly depth 7: still valid.
	if err := tree.ValidateUncle(rules, blocks[6].Hash(), side.Header, nil); err != nil {
		t.Fatalf("depth-7 uncle rejected: %v", err)
	}
	// Extending blocks[7] (height 9) puts it at depth 8: invalid.
	if err := tree.ValidateUncle(rules, blocks[7].Hash(), side.Header, nil); !errors.Is(err, ErrUncleTooDeep) {
		t.Fatalf("depth-8 uncle: %v", err)
	}
}

func TestValidateUncleRejectsFutureHeight(t *testing.T) {
	tree, bs := buildForkedTree(t)
	rules := DefaultUncleRules()
	// a3 (height 3) cannot be an uncle of a block extending a1
	// (new height 2).
	if err := tree.ValidateUncle(rules, bs["a1"].Hash(), bs["a3"].Header, nil); !errors.Is(err, ErrUncleTooDeep) {
		t.Fatalf("future uncle: %v", err)
	}
}

func TestValidateUncleRejectsDoubleUse(t *testing.T) {
	tree, bs := buildForkedTree(t)
	rules := DefaultUncleRules()
	tracker := NewUncleTracker()
	tracker.MarkUsed(bs["b1"].Hash(), bs["b1"].Header.Number)
	if err := tree.ValidateUncle(rules, bs["a3"].Hash(), bs["b1"].Header, tracker); !errors.Is(err, ErrUncleAlreadyUsed) {
		t.Fatalf("double use: %v", err)
	}
}

func TestValidateUncleRejectsForeignBranch(t *testing.T) {
	tree, bs := buildForkedTree(t)
	rules := DefaultUncleRules()
	// An uncle whose parent is b1 (not an ancestor of the a-branch).
	c := mkBlock(bs["b1"], "C", 900, 0)
	mustAdd(t, tree, c)
	if err := tree.ValidateUncle(rules, bs["a3"].Hash(), c.Header, nil); !errors.Is(err, ErrUncleUnknownParent) {
		t.Fatalf("foreign-branch uncle: %v", err)
	}
}

func TestValidateUncleUnknownParent(t *testing.T) {
	tree, bs := buildForkedTree(t)
	rules := DefaultUncleRules()
	if err := tree.ValidateUncle(rules, types.HashBytes([]byte("?")), bs["b1"].Header, nil); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("unknown parent: %v", err)
	}
}

func TestRestrictedRuleBlocksOneMinerUncle(t *testing.T) {
	// The §V mitigation: pool A mines both the main block at height 1
	// and a second version of it; the second version must not be
	// acceptable as an uncle under the restricted rule.
	g := testGenesis()
	tree := NewBlockTree(g)
	a1 := mkBlock(g, "A", 1000, 0)
	a1v2 := mkBlock(g, "A", 1000, 1) // one-miner fork sibling
	a2 := mkBlock(a1, "A", 1000, 0)
	for _, b := range []*types.Block{a1, a1v2, a2} {
		mustAdd(t, tree, b)
	}
	standard := DefaultUncleRules()
	if err := tree.ValidateUncle(standard, a2.Hash(), a1v2.Header, nil); err != nil {
		t.Fatalf("standard rule should accept one-miner uncle: %v", err)
	}
	restricted := DefaultUncleRules()
	restricted.RestrictOneMinerUncles = true
	if err := tree.ValidateUncle(restricted, a2.Hash(), a1v2.Header, nil); !errors.Is(err, ErrUncleSelfHeight) {
		t.Fatalf("restricted rule should reject one-miner uncle: %v", err)
	}
	// A different miner's sibling is still fine under the restriction.
	b1 := mkBlock(g, "B", 999, 0)
	mustAdd(t, tree, b1)
	if err := tree.ValidateUncle(restricted, a2.Hash(), b1.Header, nil); err != nil {
		t.Fatalf("restricted rule should accept foreign uncle: %v", err)
	}
}

func TestSelectUncles(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	a1 := mkBlock(g, "A", 1000, 0)
	b1 := mkBlock(g, "B", 999, 0)
	c1 := mkBlock(g, "C", 998, 0)
	d1 := mkBlock(g, "D", 997, 0)
	a2 := mkBlock(a1, "A", 1000, 0)
	for _, b := range []*types.Block{a1, b1, c1, d1, a2} {
		mustAdd(t, tree, b)
	}
	rules := DefaultUncleRules()
	uncles := tree.SelectUncles(rules, a2.Hash(), nil)
	if len(uncles) != rules.MaxPerBlock {
		t.Fatalf("want %d uncles, got %d", rules.MaxPerBlock, len(uncles))
	}
	for _, u := range uncles {
		if u.Hash() == a1.Hash() {
			t.Fatal("selected an ancestor as uncle")
		}
	}
	// With a tracker marking all side blocks used, selection is empty.
	tracker := NewUncleTracker()
	for _, b := range []*types.Block{b1, c1, d1} {
		tracker.MarkUsed(b.Hash(), b.Header.Number)
	}
	if got := tree.SelectUncles(rules, a2.Hash(), tracker); len(got) != 0 {
		t.Fatalf("tracked uncles reselected: %d", len(got))
	}
	// Unknown parent selects nothing.
	if got := tree.SelectUncles(rules, types.HashBytes([]byte("?")), nil); got != nil {
		t.Fatal("unknown parent must select nothing")
	}
}

func TestSelectUnclesPrefersShallow(t *testing.T) {
	g := testGenesis()
	tree := NewBlockTree(g)
	deepSide := mkBlock(g, "X", 900, 0)
	a1 := mkBlock(g, "A", 1000, 0)
	a2 := mkBlock(a1, "A", 1000, 0)
	shallowSide := mkBlock(a1, "Y", 900, 0)
	a3 := mkBlock(a2, "A", 1000, 0)
	for _, b := range []*types.Block{deepSide, a1, a2, shallowSide, a3} {
		mustAdd(t, tree, b)
	}
	rules := DefaultUncleRules()
	rules.MaxPerBlock = 1
	got := tree.SelectUncles(rules, a3.Hash(), nil)
	if len(got) != 1 || got[0].Hash() != shallowSide.Hash() {
		t.Fatalf("should prefer the shallow side block, got %v", got)
	}
}
