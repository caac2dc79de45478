package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
)

// refTree is the block tree and uncle selection BlockTree had before
// the slab: four hash-keyed maps, ancestry walks that look every parent
// up by hash, and a SelectUncles that runs ValidateUncle on each stored
// candidate's header — recomputing its hash — at the last MaxDepth
// heights. It survives here only as the differential reference for
// TestTreeMatchesReference and FuzzSelectUncles: the slab must answer
// every query, and pick the same uncles in the same order, as this does.
type refTree struct {
	genesis   types.Hash
	blocks    map[types.Hash]*types.Block
	byHeight  map[uint64][]types.Hash
	totalDiff map[types.Hash]uint64
	head      types.Hash
}

func newRefTree(genesis *types.Block) *refTree {
	h := genesis.Hash()
	return &refTree{
		genesis:   h,
		blocks:    map[types.Hash]*types.Block{h: genesis},
		byHeight:  map[uint64][]types.Hash{genesis.Header.Number: {h}},
		totalDiff: map[types.Hash]uint64{h: genesis.Header.Difficulty},
		head:      h,
	}
}

func (t *refTree) add(b *types.Block) (bool, error) {
	h := b.Hash()
	if _, dup := t.blocks[h]; dup {
		return false, ErrDuplicate
	}
	parent, ok := t.blocks[b.Header.ParentHash]
	if !ok {
		return false, ErrUnknownParent
	}
	if b.Header.Number != parent.Header.Number+1 {
		return false, ErrBadNumber
	}
	t.blocks[h] = b
	t.byHeight[b.Header.Number] = append(t.byHeight[b.Header.Number], h)
	td := t.totalDiff[b.Header.ParentHash] + b.Header.Difficulty
	t.totalDiff[h] = td
	if td > t.totalDiff[t.head] {
		t.head = h
		return true, nil
	}
	return false, nil
}

func (t *refTree) ancestorAt(tip types.Hash, n uint64) (types.Hash, bool) {
	cur, ok := t.blocks[tip]
	if !ok {
		return types.Hash{}, false
	}
	for {
		if cur.Header.Number == n {
			return cur.Hash(), true
		}
		if cur.Header.Number < n || cur.Hash() == t.genesis {
			return types.Hash{}, false
		}
		cur = t.blocks[cur.Header.ParentHash]
	}
}

func (t *refTree) isMain(h types.Hash) bool {
	b, ok := t.blocks[h]
	if !ok {
		return false
	}
	onMain, ok := t.ancestorAt(t.head, b.Header.Number)
	return ok && onMain == h
}

func (t *refTree) mainChain() []*types.Block {
	var rev []*types.Block
	for cur := t.head; ; cur = t.blocks[cur].Header.ParentHash {
		rev = append(rev, t.blocks[cur])
		if cur == t.genesis {
			break
		}
	}
	out := make([]*types.Block, len(rev))
	for i, b := range rev {
		out[len(rev)-1-i] = b
	}
	return out
}

func (t *refTree) isAncestor(a, b types.Hash) bool {
	ba, ok := t.blocks[a]
	if !ok {
		return false
	}
	cur, ok := t.blocks[b]
	if !ok {
		return false
	}
	for {
		if cur.Hash() == a {
			return true
		}
		if cur.Header.Number <= ba.Header.Number || cur.Hash() == t.genesis {
			return false
		}
		cur = t.blocks[cur.Header.ParentHash]
	}
}

func (t *refTree) validateUncle(rules UncleRules, parent types.Hash, candidate types.Header, tracker *UncleTracker) error {
	parentBlock, ok := t.blocks[parent]
	if !ok {
		return ErrUnknownBlock
	}
	candHash := candidate.Hash()
	if tracker != nil && tracker.Used(candHash) {
		return ErrUncleAlreadyUsed
	}
	newHeight := parentBlock.Header.Number + 1
	if candidate.Number >= newHeight {
		return ErrUncleTooDeep
	}
	if newHeight-candidate.Number > rules.MaxDepth {
		return ErrUncleTooDeep
	}
	if t.isAncestor(candHash, parent) {
		return ErrUncleIsAncestor
	}
	if !t.isAncestor(candidate.ParentHash, parent) {
		return ErrUncleUnknownParent
	}
	if rules.RestrictOneMinerUncles {
		if chainAt, ok := t.ancestorAt(parent, candidate.Number); ok && t.blocks[chainAt].Header.Miner == candidate.Miner {
			return ErrUncleSelfHeight
		}
	}
	return nil
}

func (t *refTree) selectUncles(rules UncleRules, parent types.Hash, tracker *UncleTracker) []types.Header {
	parentBlock, ok := t.blocks[parent]
	if !ok {
		return nil
	}
	newHeight := parentBlock.Header.Number + 1
	var out []types.Header
	for depth := uint64(1); depth <= rules.MaxDepth && len(out) < rules.MaxPerBlock; depth++ {
		if newHeight < depth+1 {
			break
		}
		for _, h := range t.byHeight[newHeight-depth] {
			if len(out) >= rules.MaxPerBlock {
				break
			}
			cand := t.blocks[h]
			if t.validateUncle(rules, parent, cand.Header, tracker) == nil {
				out = append(out, cand.Header)
			}
		}
	}
	return out
}

// treeTwin grows the slab tree and the reference side by side under one
// byte program and compares them after every step.
type treeTwin struct {
	t        *testing.T
	rules    UncleRules
	tree     *BlockTree
	ref      *refTree
	tracker  *UncleTracker // shared: both sides consult the same used set
	all      []*types.Block
	lastSide *types.Block // parent of the latest block, for sibling ops
	serial   uint64
	selected int // uncle headers the reference has selected so far
}

var twinMiners = []string{"A", "B", "C"}

func newTreeTwin(t *testing.T, rules UncleRules) *treeTwin {
	g := testGenesis()
	return &treeTwin{
		t: t, rules: rules,
		tree: NewBlockTree(g), ref: newRefTree(g),
		tracker: NewUncleTracker(),
		all:     []*types.Block{g},
	}
}

// mk builds a child of parent; serial keeps every hash distinct.
func (w *treeTwin) mk(parent *types.Block, miner, difficulty byte) *types.Block {
	w.serial++
	label := twinMiners[int(miner)%len(twinMiners)]
	return types.NewBlock(types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Header.Number + 1,
		Miner:      types.AddressFromString(label),
		MinerLabel: label,
		Difficulty: 1 + uint64(difficulty%3),
		Extra:      w.serial,
	}, nil, nil)
}

// add inserts b into both trees and requires the same outcome.
func (w *treeTwin) add(b *types.Block) {
	w.t.Helper()
	gotReorg, gotErr := w.tree.Add(b)
	wantReorg, wantErr := w.ref.add(b)
	if gotReorg != wantReorg || !errors.Is(gotErr, wantErr) {
		w.t.Fatalf("Add(%s): got (%v, %v), reference (%v, %v)", b.Hash().Short(), gotReorg, gotErr, wantReorg, wantErr)
	}
	if gotErr == nil {
		w.all = append(w.all, b)
	}
}

func (w *treeTwin) node(k byte) *types.Block { return w.all[int(k)%len(w.all)] }

// selectAt compares uncle selection for a block extending parent, with
// and without the tracker, and optionally marks the result used.
func (w *treeTwin) selectAt(parent types.Hash, mark bool) {
	w.t.Helper()
	for _, tracker := range []*UncleTracker{w.tracker, nil} {
		got := w.tree.SelectUncles(w.rules, parent, tracker)
		want := w.ref.selectUncles(w.rules, parent, tracker)
		w.selected += len(want)
		if !reflect.DeepEqual(got, want) {
			w.t.Fatalf("SelectUncles(parent %s, tracker %v): got %s, reference %s",
				parent.Short(), tracker != nil, headerNames(got), headerNames(want))
		}
		blocks := w.tree.SelectUncleBlocks(w.rules, parent, tracker)
		if len(blocks) != len(want) {
			w.t.Fatalf("SelectUncleBlocks: %d blocks, reference %d", len(blocks), len(want))
		}
		for i, b := range blocks {
			if b.Header != want[i] || b.Hash() != want[i].Hash() {
				w.t.Fatalf("SelectUncleBlocks[%d]: %s, reference %s", i, b.Hash().Short(), want[i].Hash().Short())
			}
		}
	}
	if mark {
		for _, u := range w.ref.selectUncles(w.rules, parent, w.tracker) {
			w.tracker.MarkUsed(u.Hash(), u.Number)
		}
	}
}

func headerNames(hs []types.Header) string {
	out := "["
	for i := range hs {
		out += fmt.Sprintf(" %d:%s", hs[i].Number, hs[i].Hash().Short())
	}
	return out + " ]"
}

// validateAt compares ValidateUncle's verdict, by error class, for one
// (parent, candidate) pair; the candidate may be any node, stored or
// not.
func (w *treeTwin) validateAt(parent types.Hash, cand types.Header) {
	w.t.Helper()
	got := w.tree.ValidateUncle(w.rules, parent, cand, w.tracker)
	want := w.ref.validateUncle(w.rules, parent, cand, w.tracker)
	if !errors.Is(got, want) {
		w.t.Fatalf("ValidateUncle(parent %s, cand %d:%s): got %v, reference %v",
			parent.Short(), cand.Number, cand.Hash().Short(), got, want)
	}
}

// compareQueries checks every read-only query of the tree against the
// reference, for the two nodes the step touched and the tree as a whole.
func (w *treeTwin) compareQueries(a, b *types.Block) {
	w.t.Helper()
	if w.tree.Len() != len(w.ref.blocks) || w.tree.Head().Hash() != w.ref.head || w.tree.Genesis() != w.ref.genesis {
		w.t.Fatalf("len/head/genesis: got %d/%s, reference %d/%s", w.tree.Len(), w.tree.Head().Hash().Short(), len(w.ref.blocks), w.ref.head.Short())
	}
	if w.tree.MaxHeight() != w.ref.blocks[w.ref.head].Header.Number {
		w.t.Fatalf("MaxHeight: got %d", w.tree.MaxHeight())
	}
	if got, want := w.tree.MainChain(), w.ref.mainChain(); !reflect.DeepEqual(got, want) {
		w.t.Fatalf("MainChain: got %d blocks, reference %d", len(got), len(want))
	}
	ha, hb := a.Hash(), b.Hash()
	unknown := types.HashBytes(ha[:])
	for _, pair := range [][2]types.Hash{{ha, hb}, {hb, ha}, {ha, ha}, {w.ref.genesis, hb}, {unknown, ha}, {ha, unknown}} {
		if got, want := w.tree.IsAncestor(pair[0], pair[1]), w.ref.isAncestor(pair[0], pair[1]); got != want {
			w.t.Fatalf("IsAncestor(%s, %s): got %v, reference %v", pair[0].Short(), pair[1].Short(), got, want)
		}
	}
	for _, h := range []types.Hash{ha, hb, unknown} {
		if got, want := w.tree.IsMain(h), w.ref.isMain(h); got != want {
			w.t.Fatalf("IsMain(%s): got %v, reference %v", h.Short(), got, want)
		}
		gotTD, gotErr := w.tree.TotalDifficulty(h)
		wantTD, known := w.ref.totalDiff[h]
		if gotTD != wantTD || (gotErr == nil) != known {
			w.t.Fatalf("TotalDifficulty(%s): got (%d, %v), reference (%d, %v)", h.Short(), gotTD, gotErr, wantTD, known)
		}
		blk, ok := w.tree.Block(h)
		if ok != known || w.tree.Has(h) != known || blk != w.ref.blocks[h] {
			w.t.Fatalf("Block/Has(%s) disagree with reference", h.Short())
		}
	}
	for _, n := range []uint64{a.Header.Number, b.Header.Number, w.tree.MaxHeight() + 1} {
		got, want := w.tree.AtHeight(n), w.ref.byHeight[n]
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			w.t.Fatalf("AtHeight(%d): got %v, reference %v", n, got, want)
		}
	}
}

var (
	twinDepths   = []uint64{0, 1, 7, 9}
	twinPerBlock = []int{0, 1, 2, 3}
)

// diffTreeProgram interprets prog: byte 0 picks the uncle rules, the
// rest is a sequence of (op, arg, arg) steps growing the tree. It
// returns how many uncle headers the reference selected along the way.
func diffTreeProgram(t *testing.T, prog []byte) int {
	t.Helper()
	if len(prog) == 0 {
		prog = []byte{0x0a} // Ethereum's rules
	}
	w := newTreeTwin(t, UncleRules{
		MaxDepth:               twinDepths[prog[0]&3],
		MaxPerBlock:            twinPerBlock[prog[0]>>2&3],
		RestrictOneMinerUncles: prog[0]>>4&1 == 1,
	})
	w.lastSide = w.all[0]
	for pc := 1; pc+2 < len(prog) && len(w.all) < 400; pc += 3 {
		op, x, y := prog[pc], prog[pc+1], prog[pc+2]
		touched := w.node(x)
		switch op % 8 {
		case 0, 1: // child of node x
			w.lastSide = touched
			w.add(w.mk(touched, y, y>>2))
		case 2: // same-height sibling of the latest block
			w.add(w.mk(w.lastSide, x, y))
		case 3: // a fork of up to 9 blocks off node x
			tip := touched
			for d := 0; d <= int(y)%9; d++ {
				w.lastSide = tip
				b := w.mk(tip, y>>4, y>>2)
				w.add(b)
				tip = b
			}
		case 4: // select on node x, marking what was chosen
			w.selectAt(touched.Hash(), true)
		case 5: // re-add a stored block; add an orphan; add a bad number
			w.add(w.node(y))
			orphan := w.mk(touched, y, y)
			orphan.Header.ParentHash = types.HashBytes([]byte{x, y})
			w.add(types.NewBlock(orphan.Header, nil, nil))
			skip := w.mk(touched, y, y)
			skip.Header.Number += 1 + uint64(y%2)
			w.add(types.NewBlock(skip.Header, nil, nil))
		case 6: // ValidateUncle on a stored pair and on a foreign header
			w.validateAt(touched.Hash(), w.node(y).Header)
			w.validateAt(touched.Hash(), w.mk(w.node(y), x, y).Header)
		case 7: // select on an unknown parent
			w.selectAt(types.HashBytes([]byte{x, y}), false)
		}
		latest := w.all[len(w.all)-1]
		w.selectAt(w.tree.Head().Hash(), false)
		w.selectAt(latest.Hash(), false)
		w.selectAt(touched.Hash(), false)
		w.compareQueries(touched, latest)
	}
	return w.selected
}

// TestTreeMatchesReference grows random trees — children of arbitrary
// nodes, same-height siblings, forks up to depth 9, uncles marked used —
// under every combination of MaxDepth {0,1,7,9}, MaxPerBlock {0..3}
// and the restricted rule, and requires the slab tree to select the
// same uncle headers in the same order, and answer every ancestry,
// main-chain, height and difficulty query, exactly as the map-based
// reference does, at every step.
func TestTreeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for rules := 0; rules < 32; rules++ {
		selected := 0
		for rep := 0; rep < 6; rep++ {
			prog := make([]byte, 1+3*(40+r.Intn(80)))
			r.Read(prog)
			prog[0] = byte(rules)
			selected += diffTreeProgram(t, prog)
		}
		// The comparison must not be vacuous: wherever the rules allow
		// an uncle at all, these trees offer hundreds.
		if allowed := twinDepths[rules&3] > 0 && twinPerBlock[rules>>2&3] > 0; allowed && selected < 100 {
			t.Fatalf("rules %#x: only %d uncles selected across the programs", rules, selected)
		}
	}
}

// FuzzSelectUncles feeds arbitrary byte programs to the same harness;
// the seed corpus runs as a regular test.
func FuzzSelectUncles(f *testing.F) {
	f.Add([]byte{})
	// Ethereum's rules: a chain of three, two siblings of its tip, then
	// a child that selects and marks them, then one more that must not.
	f.Add([]byte{0x0a, 3, 0, 2, 2, 1, 0, 2, 2, 1, 0, 3, 0, 4, 3, 0, 0, 3, 0, 4, 6, 0})
	// Restricted rule, depth 9, three per block: forks off genesis by
	// every miner, a long fork that reorgs, selection along both.
	f.Add([]byte{0x1f, 3, 0, 8, 3, 0, 0x18, 3, 0, 0x28, 3, 2, 0x07, 4, 9, 0, 4, 20, 0, 6, 9, 3, 6, 3, 9})
	// Depth 1, one per block: siblings at every height of a short chain.
	f.Add([]byte{0x05, 0, 0, 0, 2, 1, 1, 0, 1, 0, 2, 2, 2, 0, 3, 0, 2, 0, 1, 4, 5, 0, 5, 1, 2, 7, 1, 1})
	// Nothing selectable: depth 0, and per-block 0.
	f.Add([]byte{0x08, 3, 0, 4, 2, 0, 0, 4, 2, 0})
	f.Add([]byte{0x02, 3, 0, 4, 2, 0, 0, 4, 2, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { diffTreeProgram(t, prog) })
}
