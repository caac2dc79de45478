package chain

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// Uncle (ommer) validation. Ethereum rewards stale blocks that get
// referenced by later main-chain blocks; the paper shows (§III-C5)
// that this mechanism — designed to help small miners — is exploited
// by large pools mining several versions of the same block. §V
// proposes restricting it: an uncle is invalid when its miner also
// mined the main-chain block at the same height. UncleRules captures
// both the standard protocol and that proposed mitigation, so the
// Lesson-1 ablation is a one-flag change.

// Uncle validation errors.
var (
	ErrUncleIsAncestor    = errors.New("chain: uncle is an ancestor of the including block")
	ErrUncleTooDeep       = errors.New("chain: uncle exceeds maximum depth")
	ErrUncleUnknownParent = errors.New("chain: uncle parent not on including chain")
	ErrUncleAlreadyUsed   = errors.New("chain: uncle already referenced")
	ErrUncleSelfHeight    = errors.New("chain: uncle miner already mined main block at same height (restricted rule)")
	ErrTooManyUncles      = errors.New("chain: too many uncles")
)

// UncleRules parameterizes uncle validity.
type UncleRules struct {
	// MaxDepth is how many generations back an uncle's height may lie
	// (Ethereum: 7).
	MaxDepth uint64
	// MaxPerBlock is the per-block uncle reference limit (Ethereum: 2).
	MaxPerBlock int
	// RestrictOneMinerUncles enables the paper's §V mitigation:
	// reject an uncle when the same miner address also produced the
	// chain block at the uncle's height on the branch being extended.
	RestrictOneMinerUncles bool
}

// DefaultUncleRules returns Ethereum's standard parameters with the
// restriction disabled.
func DefaultUncleRules() UncleRules {
	return UncleRules{MaxDepth: types.MaxUncleDepth, MaxPerBlock: types.MaxUnclesPerBlock}
}

// UncleTracker records which uncle hashes were already referenced on a
// branch; Ethereum forbids double inclusion. A single global set is a
// faithful approximation for the simulation because reorgs deep enough
// to resurrect an uncle reference do not occur at the observed fork
// lengths (max 3).
type UncleTracker struct {
	used map[types.Hash]bool
}

// NewUncleTracker creates an empty tracker.
func NewUncleTracker() *UncleTracker {
	return &UncleTracker{used: make(map[types.Hash]bool)}
}

// MarkUsed records that an uncle hash was referenced.
func (u *UncleTracker) MarkUsed(h types.Hash) { u.used[h] = true }

// Used reports whether the hash was already referenced.
func (u *UncleTracker) Used(h types.Hash) bool { return u.used[h] }

// ValidateUncle checks whether candidate can be referenced as an uncle
// by a block extending parent (i.e. the new block will have height
// parent.Number+1). tracker may be nil to skip the double-use check.
// The candidate may be a header the tree has never stored, so it is
// identified by hashing it; SelectUncles applies the same four
// conditions to stored blocks without doing so.
func (t *BlockTree) ValidateUncle(rules UncleRules, parent types.Hash, candidate types.Header, tracker *UncleTracker) error {
	pi, ok := t.index[parent]
	if !ok {
		return fmt.Errorf("%w: parent %s", ErrUnknownBlock, parent.Short())
	}
	candHash := candidate.Hash()
	if tracker != nil && tracker.Used(candHash) {
		return ErrUncleAlreadyUsed
	}
	newHeight := t.number(pi) + 1
	if candidate.Number >= newHeight {
		return fmt.Errorf("%w: uncle height %d vs block height %d", ErrUncleTooDeep, candidate.Number, newHeight)
	}
	if newHeight-candidate.Number > rules.MaxDepth {
		return fmt.Errorf("%w: depth %d", ErrUncleTooDeep, newHeight-candidate.Number)
	}
	// The uncle must be a side block: a sibling branch of the chain
	// being extended. Its parent must be an ancestor of the new block,
	// but the uncle itself must not be.
	if t.IsAncestor(candHash, parent) {
		return ErrUncleIsAncestor
	}
	if !t.IsAncestor(candidate.ParentHash, parent) {
		return fmt.Errorf("%w: uncle parent %s", ErrUncleUnknownParent, candidate.ParentHash.Short())
	}
	if rules.RestrictOneMinerUncles {
		if chainAt, ok := t.ancestorAt(pi, candidate.Number); ok && t.nodes[chainAt].block.Header.Miner == candidate.Miner {
			return ErrUncleSelfHeight
		}
	}
	return nil
}

// SelectUncles returns up to rules.MaxPerBlock valid uncle headers for
// a block extending parent, preferring shallower (more recent) side
// blocks, mirroring Geth's selection. The tracker, when non-nil, is
// consulted but NOT updated; callers mark selected uncles used once
// the block is actually mined.
func (t *BlockTree) SelectUncles(rules UncleRules, parent types.Hash, tracker *UncleTracker) []types.Header {
	var out []types.Header
	for _, b := range t.SelectUncleBlocks(rules, parent, tracker) {
		out = append(out, b.Header)
	}
	return out
}

// SelectUncleBlocks is SelectUncles returning the stored blocks, whose
// cached hashes let the caller mark them used without re-hashing.
//
// It steps the extended branch's ancestors once, shallow to deep. At
// each height a stored block is a valid uncle iff it is not that
// height's ancestor, its parent is the ancestor one below, the tracker
// has not used it and (restricted rule) its miner differs from the
// ancestor's — ValidateUncle's conditions, read off slab indices.
func (t *BlockTree) SelectUncleBlocks(rules UncleRules, parent types.Hash, tracker *UncleTracker) []*types.Block {
	anc, ok := t.index[parent]
	if !ok || rules.MaxPerBlock <= 0 {
		return nil
	}
	var out []*types.Block
	height := t.number(anc)
	for depth := uint64(1); depth <= rules.MaxDepth; depth++ {
		below := t.nodes[anc].parent
		if below < 0 {
			break // genesis is nobody's uncle and has no siblings
		}
		for _, i := range t.atHeight(height) {
			c := &t.nodes[i]
			if i == anc || c.parent != below {
				continue
			}
			if rules.RestrictOneMinerUncles && c.block.Header.Miner == t.nodes[anc].block.Header.Miner {
				continue
			}
			if tracker != nil && tracker.Used(c.hash) {
				continue
			}
			out = append(out, c.block)
			if len(out) >= rules.MaxPerBlock {
				return out
			}
		}
		anc, height = below, height-1
	}
	return out
}
