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

// BlockTree stores every observed block, tracks the heaviest
// (total-difficulty) chain, and answers ancestry and fork queries.
type BlockTree struct {
	nodes []node
	index map[types.Hash]int32
	// byHeight[n-base] lists the blocks at height n in arrival order;
	// base is the genesis height.
	byHeight [][]int32
	base     uint64
	head     int32
}

// node is one stored block with what the walks need beside it: its
// hash (so no walk re-derives one), the cumulative difficulty of the
// chain ending at it, and its parent's slab index (-1 for genesis).
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
func (t *BlockTree) Genesis() types.Hash { return t.nodes[0].hash }

// Len returns the number of blocks in the tree (including genesis).
func (t *BlockTree) Len() int { return len(t.nodes) }

// Head returns the tip of the heaviest chain.
func (t *BlockTree) Head() *types.Block { return t.nodes[t.head].block }

// Block returns a block by hash.
func (t *BlockTree) Block(h types.Hash) (*types.Block, bool) {
	i, ok := t.index[h]
	if !ok {
		return nil, false
	}
	return t.nodes[i].block, true
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
	return t.nodes[i].td, nil
}

// Add inserts a block. The parent must already be present. The head
// moves when the new chain is strictly heavier (first-received wins
// ties, like Geth). It reports whether the head moved.
func (t *BlockTree) Add(b *types.Block) (reorged bool, err error) {
	h := b.Hash()
	if _, dup := t.index[h]; dup {
		return false, fmt.Errorf("%w: %s", ErrDuplicate, h.Short())
	}
	pi, ok := t.index[b.Header.ParentHash]
	if !ok {
		return false, fmt.Errorf("%w: block %s parent %s", ErrUnknownParent, h.Short(), b.Header.ParentHash.Short())
	}
	if parentNumber := t.number(pi); b.Header.Number != parentNumber+1 {
		return false, fmt.Errorf("%w: %d after %d", ErrBadNumber, b.Header.Number, parentNumber)
	}
	i := int32(len(t.nodes))
	td := t.nodes[pi].td + b.Header.Difficulty
	t.nodes = append(t.nodes, node{block: b, hash: h, td: td, parent: pi})
	t.index[h] = i
	if slot := b.Header.Number - t.base; slot < uint64(len(t.byHeight)) {
		t.byHeight[slot] = append(t.byHeight[slot], i)
	} else {
		t.byHeight = append(t.byHeight, []int32{i})
	}
	if td > t.nodes[t.head].td {
		t.head = i
		return true, nil
	}
	return false, nil
}

func (t *BlockTree) number(i int32) uint64 { return t.nodes[i].block.Header.Number }

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
		out[k] = t.nodes[i].hash
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
// links.
func (t *BlockTree) ancestorAt(tip int32, n uint64) (int32, bool) {
	height := t.number(tip)
	if height < n || n < t.base {
		return 0, false
	}
	for ; height > n; height-- {
		tip = t.nodes[tip].parent
	}
	return tip, true
}

// MainChain returns the heaviest chain from genesis to head,
// inclusive.
func (t *BlockTree) MainChain() []*types.Block {
	out := make([]*types.Block, t.MaxHeight()-t.base+1)
	for i, k := t.head, len(out)-1; k >= 0; i, k = t.nodes[i].parent, k-1 {
		out[k] = t.nodes[i].block
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

// ConfirmationDepth returns how many blocks on the main chain follow
// the block at h (0 when h is the head). It returns an error when h is
// not on the main chain.
func (t *BlockTree) ConfirmationDepth(h types.Hash) (int, error) {
	i, ok := t.index[h]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, h.Short())
	}
	if !t.IsMain(h) {
		return 0, fmt.Errorf("chain: block %s not on main chain", h.Short())
	}
	return int(t.MaxHeight() - t.number(i)), nil
}
