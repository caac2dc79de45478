// Package chain implements the blockchain substrate: a block tree with
// total-difficulty fork choice, Ethereum's uncle (ommer) rules, a
// difficulty schedule, and a nonce-ordered transaction pool.
//
// The package is deliberately a *tree*, not a list: the paper's fork
// analysis (§III-C4), one-miner forks (§III-C5) and uncle recognition
// (Table III) all live in the side branches. The tree is a slab: blocks
// sit in arrival order beside their hash, cumulative difficulty and
// parent index, one map resolves a hash to its index at the API
// boundary, and ancestry, main-chain and uncle-selection walks follow
// indices — mining a block hashes nothing but the new block itself.
//
// A tree keeps every block until its owner calls Settle. A run that
// reads the chain one height at a time calls it after each block:
// heights more than SettleDepth below the head are then handed to a
// sink, main-chain block and side blocks together, and dropped, and
// the slab compacts the dropped prefix, so the tree holds a window of
// heights instead of the whole chain.
package chain

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// Errors returned by the block tree.
var (
	ErrUnknownParent = errors.New("chain: unknown parent")
	ErrDuplicate     = errors.New("chain: duplicate block")
	ErrBadNumber     = errors.New("chain: block number != parent number + 1")
	ErrUnknownBlock  = errors.New("chain: unknown block")
)

// SettleDepth is how far below the head a height lies once it is
// settled: Settle may retire it, and nothing the mining model does can
// still reach it.
//   - An uncle lies at most types.MaxUncleDepth (7) heights below the
//     block that names it, so a block mined at the head reads the side
//     blocks of the 7 heights under it.
//   - The deepest reorg the model makes is a withholder's release: its
//     private chain is capped at 4 blocks (mining's
//     withholdReleaseCap), and it forks at most that far below the
//     public head. Honest forks are 1–3 long (Table III).
//   - A pool mines on the head it last saw, which trails the global
//     head by the blocks mined during its gateway and switch delay:
//     about a second against a 13.3 s block interval, so rarely one.
//
// The uncle window over the deepest reorg is 7 + 4 + 3 = 14 heights,
// plus a pool's lag; 64 is more than four times that. A run that
// reaches deeper anyway fails with a *ReorgError.
const SettleDepth = 64

// ReorgError is a settling tree's refusal of a block, or of a miner's
// parent, that reaches a retired height: following it would change a
// main-chain block already handed to the sink.
type ReorgError struct {
	// Block is the refused block, or the miner's parent.
	Block types.Hash
	// Depth is how many heights below the head the block reaches: at
	// least the number of main-chain blocks it would replace.
	Depth uint64
	// Settled is the highest retired height.
	Settled uint64
}

func (e *ReorgError) Error() string {
	return fmt.Sprintf("chain: block %s reaches depth %d, below settled height %d (settle depth %d)",
		e.Block.Short(), e.Depth, e.Settled, SettleDepth)
}

// BlockTree stores every observed block, tracks the heaviest
// (total-difficulty) chain, and answers ancestry and fork queries.
//
// Slab indices are absolute: block i sits at nodes[i-off]. Retired
// blocks leave the index map at once and the slab when every block
// before them has gone too; off counts the blocks compacted away.
type BlockTree struct {
	nodes []node
	off   int32
	index map[types.Hash]int32
	// byHeight[n-base] lists the blocks at height n in arrival order;
	// base is the lowest stored height, the genesis height until
	// Settle retires anything.
	byHeight [][]int32
	base     uint64
	head     int32
	genesis  types.Hash
	// settled is the slab index of the last retired main-chain block
	// (the parent of the main-chain block at base), -1 until Settle
	// retires anything.
	settled int32
}

// node is one stored block with what the walks need beside it: its
// hash (so no walk re-derives one), the cumulative difficulty of the
// chain ending at it, and its parent's slab index (-1 for genesis). A
// retired node waiting to be compacted has a nil block.
type node struct {
	block  *types.Block
	hash   types.Hash
	td     uint64
	parent int32
}

// NewBlockTree creates a tree rooted at the given genesis block. The
// genesis counts toward total difficulty like any block.
func NewBlockTree(genesis *types.Block) *BlockTree {
	h := genesis.Hash()
	return &BlockTree{
		nodes:    []node{{block: genesis, hash: h, td: genesis.Header.Difficulty, parent: -1}},
		index:    map[types.Hash]int32{h: 0},
		byHeight: [][]int32{{0}},
		base:     genesis.Header.Number,
		genesis:  h,
		settled:  -1,
	}
}

// NewGenesis builds the canonical genesis block used across the
// reproduction.
func NewGenesis(difficulty, gasLimit uint64) *types.Block {
	return types.NewBlock(types.Header{
		ParentHash: types.ZeroHash,
		Number:     0,
		MinerLabel: "genesis",
		Difficulty: difficulty,
		GasLimit:   gasLimit,
	}, nil, nil)
}

// Genesis returns the genesis hash.
func (t *BlockTree) Genesis() types.Hash { return t.genesis }

// Len returns the number of stored blocks (including genesis until it
// is retired).
func (t *BlockTree) Len() int { return len(t.index) }

// Head returns the tip of the heaviest chain.
func (t *BlockTree) Head() *types.Block { return t.node(t.head).block }

// node returns the stored node at slab index i.
func (t *BlockTree) node(i int32) *node { return &t.nodes[i-t.off] }

// Block returns a block by hash.
func (t *BlockTree) Block(h types.Hash) (*types.Block, bool) {
	i, ok := t.index[h]
	if !ok {
		return nil, false
	}
	return t.node(i).block, true
}

// Has reports whether the tree contains a block.
func (t *BlockTree) Has(h types.Hash) bool {
	_, ok := t.index[h]
	return ok
}

// TotalDifficulty returns the cumulative difficulty of the chain
// ending at h.
func (t *BlockTree) TotalDifficulty(h types.Hash) (uint64, error) {
	i, ok := t.index[h]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, h.Short())
	}
	return t.node(i).td, nil
}

// Add inserts a block. The parent must already be present. The head
// moves when the new chain is strictly heavier (first-received wins
// ties, like Geth). It reports whether the head moved. On a tree that
// has retired heights, a block whose parent was retired, or one that
// would move the head onto a branch forking below the settled tip, is
// refused with a *ReorgError.
func (t *BlockTree) Add(b *types.Block) (reorged bool, err error) {
	h := b.Hash()
	if _, dup := t.index[h]; dup {
		return false, fmt.Errorf("%w: %s", ErrDuplicate, h.Short())
	}
	pi, ok := t.index[b.Header.ParentHash]
	if !ok {
		if t.settled >= 0 && b.Header.Number <= t.base {
			return false, t.reorgError(h, t.MaxHeight()-(b.Header.Number-1))
		}
		return false, fmt.Errorf("%w: block %s parent %s", ErrUnknownParent, h.Short(), b.Header.ParentHash.Short())
	}
	if parentNumber := t.number(pi); b.Header.Number != parentNumber+1 {
		return false, fmt.Errorf("%w: %d after %d", ErrBadNumber, b.Header.Number, parentNumber)
	}
	td := t.node(pi).td + b.Header.Difficulty
	heavier := td > t.node(t.head).td
	if heavier && t.settled >= 0 && pi != t.head && !t.joinsAboveSettled(pi) {
		return false, t.reorgError(h, t.MaxHeight()-(t.base-2))
	}
	i := t.off + int32(len(t.nodes))
	t.nodes = append(t.nodes, node{block: b, hash: h, td: td, parent: pi})
	t.index[h] = i
	if slot := b.Header.Number - t.base; slot < uint64(len(t.byHeight)) {
		t.byHeight[slot] = append(t.byHeight[slot], i)
	} else {
		t.byHeight = append(t.byHeight, []int32{i})
	}
	if heavier {
		t.head = i
		return true, nil
	}
	return false, nil
}

// joinsAboveSettled reports whether the branch through the stored block
// x meets the main chain at or above the settled tip. It steps x and
// the head down to their common ancestor; at the lowest stored height
// the head's branch hangs off the settled tip, so a branch that does
// not forks below it.
func (t *BlockTree) joinsAboveSettled(x int32) bool {
	y := t.head
	hx, hy := t.number(x), t.number(y)
	for x != y {
		switch {
		case hx > hy:
			x, hx = t.node(x).parent, hx-1
		case hy > hx:
			y, hy = t.node(y).parent, hy-1
		case hx == t.base:
			return t.node(x).parent == t.settled
		default:
			x, y, hx, hy = t.node(x).parent, t.node(y).parent, hx-1, hy-1
		}
	}
	return true
}

func (t *BlockTree) reorgError(h types.Hash, depth uint64) *ReorgError {
	return &ReorgError{Block: h, Depth: depth, Settled: t.base - 1}
}

// MinerParent returns the stored block at h for a miner about to extend
// it whose rules read window heights below the new block (the uncle
// depth). On a tree that has retired heights it fails with a
// *ReorgError when h was retired or the window reaches a retired
// height: that miner trails the head by more than SettleDepth less the
// window, and whatever it mines differs from what the whole tree would
// have offered it.
func (t *BlockTree) MinerParent(h types.Hash, window uint64) (*types.Block, error) {
	i, ok := t.index[h]
	if !ok {
		if t.settled >= 0 {
			return nil, t.reorgError(h, t.MaxHeight()-(t.base-1))
		}
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, h.Short())
	}
	if n := t.number(i); t.settled >= 0 && n+1 < t.base+window {
		return nil, t.reorgError(h, t.MaxHeight()-n-1+window)
	}
	return t.node(i).block, nil
}

// Height is one retired height as Settle hands it to its sink: the
// main-chain block and every block stored at the height, the main
// block included, in arrival order. Blocks is reused from one height
// to the next; a sink that keeps it copies it.
type Height struct {
	Main   *types.Block
	Blocks []*types.Block
}

// Settle retires settled heights: once the stored heights span
// 2×SettleDepth, every height more than SettleDepth below the head is
// retired, lowest first — handed to sink, then all its blocks dropped
// from the index, the height slots and the slab. Retiring a batch at a
// time keeps the walk to the settled heights' main chain at two steps
// per height. It reports whether it retired anything; a tree whose
// owner never calls it keeps every block.
func (t *BlockTree) Settle(sink func(Height)) bool {
	head := t.MaxHeight()
	if head-t.base < 2*SettleDepth {
		return false
	}
	t.retire(head-SettleDepth, sink)
	return true
}

// Flush retires every stored height up to the head's, the unsettled
// tip Settle keeps, handing each to sink. It is the owner's last call
// on the tree. Blocks above the head's height (a branch longer but
// lighter than the main chain) are not handed over: no main-chain
// block stands at their heights.
func (t *BlockTree) Flush(sink func(Height)) {
	t.retire(t.MaxHeight(), sink)
}

// retire hands every stored height from the base through the given
// one to sink and drops their blocks.
func (t *BlockTree) retire(through uint64, sink func(Height)) {
	n := int(through - t.base + 1)
	main := make([]int32, n)
	i := t.head
	for h := t.MaxHeight(); h > through; h-- {
		i = t.node(i).parent
	}
	for k := n - 1; k >= 0; k-- {
		main[k] = i
		i = t.node(i).parent
	}
	var height Height
	for k, mi := range main {
		height.Main, height.Blocks = t.node(mi).block, height.Blocks[:0]
		for _, j := range t.byHeight[k] {
			height.Blocks = append(height.Blocks, t.node(j).block)
		}
		sink(height)
		for _, j := range t.byHeight[k] {
			nd := t.node(j)
			delete(t.index, nd.hash)
			nd.block = nil
		}
	}
	t.settled = main[n-1]
	t.base = through + 1
	kept := copy(t.byHeight, t.byHeight[n:])
	clear(t.byHeight[kept:])
	t.byHeight = t.byHeight[:kept]
	// Compact the slab's retired prefix. A block that arrived late
	// (a withheld release) keeps the blocks after it until it retires.
	dead := 0
	for dead < len(t.nodes) && t.nodes[dead].block == nil {
		dead++
	}
	kept = copy(t.nodes, t.nodes[dead:])
	clear(t.nodes[kept:])
	t.nodes = t.nodes[:kept]
	t.off += int32(dead)
}

// Base returns the lowest stored height: the genesis height until
// Settle retires anything, then one above the highest retired height.
func (t *BlockTree) Base() uint64 { return t.base }

func (t *BlockTree) number(i int32) uint64 { return t.node(i).block.Header.Number }

// atHeight returns the slab indices at height n, in arrival order.
func (t *BlockTree) atHeight(n uint64) []int32 {
	if slot := n - t.base; n >= t.base && slot < uint64(len(t.byHeight)) {
		return t.byHeight[slot]
	}
	return nil
}

// AtHeight returns every block hash observed at the given height, in
// arrival order.
func (t *BlockTree) AtHeight(n uint64) []types.Hash {
	is := t.atHeight(n)
	out := make([]types.Hash, len(is))
	for k, i := range is {
		out[k] = t.node(i).hash
	}
	return out
}

// MaxHeight returns the height of the current head.
func (t *BlockTree) MaxHeight() uint64 { return t.number(t.head) }

// IsMain reports whether the block at h lies on the heaviest chain.
func (t *BlockTree) IsMain(h types.Hash) bool {
	i, ok := t.index[h]
	if !ok {
		return false
	}
	onMain, ok := t.ancestorAt(t.head, t.number(i))
	return ok && onMain == i
}

// ancestorAt walks from tip back to the requested height along parent
// links; a retired height has no stored ancestor.
func (t *BlockTree) ancestorAt(tip int32, n uint64) (int32, bool) {
	height := t.number(tip)
	if height < n || n < t.base {
		return 0, false
	}
	for ; height > n; height-- {
		tip = t.node(tip).parent
	}
	return tip, true
}

// MainChain returns the heaviest chain from genesis (or, once Settle
// has retired heights, from the lowest stored height) to head,
// inclusive.
func (t *BlockTree) MainChain() []*types.Block {
	out := make([]*types.Block, t.MaxHeight()-t.base+1)
	for i, k := t.head, len(out)-1; k >= 0; k-- {
		nd := t.node(i)
		out[k], i = nd.block, nd.parent
	}
	return out
}

// IsAncestor reports whether a is an ancestor of (or equal to) b.
func (t *BlockTree) IsAncestor(a, b types.Hash) bool {
	ia, ok := t.index[a]
	if !ok {
		return false
	}
	ib, ok := t.index[b]
	if !ok {
		return false
	}
	at, ok := t.ancestorAt(ib, t.number(ia))
	return ok && at == ia
}
