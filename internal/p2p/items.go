package p2p

import (
	"fmt"

	"repro/internal/types"
)

// Compact item indices for the struct-of-arrays node core.
//
// Blocks and transactions get a dense int32 index when they are
// injected into the network. Per-node dedup state then lives in flat
// bit grids keyed by (node index, item index) — one bit per pair
// instead of a ~50-byte map entry per pair — and the 32-byte hashes
// survive only at the relay.Env and observer boundaries, where
// protocols and reports need them.

// itemIndex interns hashes to dense indices, and keeps the way back:
// hashes[i] is the hash interned as i. One instance per item family
// (blocks, transactions) per network; the map here is the single
// hash-keyed structure the whole node core retains.
//
// Interning happens only while the run is single-threaded — Inject*
// (phase A on region lanes) — and covers every hash a flight can name:
// an injected block's own and its parent's, an injected transaction's.
// What a lane runs only reads: lookup/mustLookup, or for blocks no map
// at all — the index travels in the flight and hashes gives it back.
type itemIndex struct {
	idx    map[types.Hash]int32
	hashes []types.Hash
}

// lookup returns the index for h if it has been interned.
func (x *itemIndex) lookup(h types.Hash) (int32, bool) {
	i, ok := x.idx[h]
	return i, ok
}

// mustLookup is lookup for a hash the interning invariant says is
// present. A miss is a bug in whoever put the hash on the wire;
// interning it here instead would be a concurrent map write on region
// lanes. The panic is contained to the run.
func (x *itemIndex) mustLookup(h types.Hash) int32 {
	i, ok := x.idx[h]
	if !ok {
		panic(fmt.Sprintf("p2p: hash %v on the wire was never interned: every hash a flight can name "+
			"must be interned by InjectBlock/InjectTx before a lane handles it", h))
	}
	return i
}

// intern returns h's index, assigning the next dense index on first
// sight.
func (x *itemIndex) intern(h types.Hash) int32 {
	if x.idx == nil {
		x.idx = make(map[types.Hash]int32, 64)
	}
	if i, ok := x.idx[h]; ok {
		return i
	}
	i := int32(len(x.hashes))
	x.idx[h] = i
	x.hashes = append(x.hashes, h)
	return i
}

// bitGrid is a dense 2-D bitmap: one row per node, one column per
// item. Rows are node indices (NodeID-1), columns item indices. The
// grid grows in both directions — columns as items are interned (the
// stride doubles, re-laying rows out), rows as churn adds nodes — so a
// campaign never sizes it up front.
type bitGrid struct {
	words  []uint64
	stride int32 // words per row
	rows   int32
}

// set marks (row, col), growing the grid as needed.
func (g *bitGrid) set(row, col int32) {
	w := col >> 6
	if w >= g.stride {
		g.growStride(w + 1)
	}
	if row >= g.rows {
		g.growRows(row + 1)
	}
	g.words[row*g.stride+w] |= 1 << (uint(col) & 63)
}

// get reports (row, col); out-of-range coordinates are unset.
func (g *bitGrid) get(row, col int32) bool {
	w := col >> 6
	if row >= g.rows || w >= g.stride {
		return false
	}
	return g.words[row*g.stride+w]&(1<<(uint(col)&63)) != 0
}

// clear unmarks (row, col) if in range.
func (g *bitGrid) clear(row, col int32) {
	w := col >> 6
	if row >= g.rows || w >= g.stride {
		return
	}
	g.words[row*g.stride+w] &^= 1 << (uint(col) & 63)
}

// growStride widens every row to at least need words, doubling to
// amortize the re-layout copy.
func (g *bitGrid) growStride(need int32) {
	ns := g.stride * 2
	if ns < need {
		ns = need
	}
	if ns < 2 {
		ns = 2
	}
	nw := make([]uint64, int(g.rows)*int(ns))
	for r := int32(0); r < g.rows; r++ {
		copy(nw[r*ns:r*ns+g.stride], g.words[r*g.stride:(r+1)*g.stride])
	}
	g.words = nw
	g.stride = ns
}

// growRows appends zeroed rows up to need.
func (g *bitGrid) growRows(need int32) {
	if g.stride == 0 {
		g.rows = need
		return
	}
	total := int(need) * int(g.stride)
	if total > len(g.words) {
		g.words = append(g.words, make([]uint64, total-len(g.words))...)
	}
	g.rows = need
}
