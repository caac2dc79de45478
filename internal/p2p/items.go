package p2p

import "repro/internal/types"

// Compact item indices for the struct-of-arrays node core.
//
// Blocks and transactions get a dense int32 index when they are
// injected into the network. Per-node dedup state then lives in flat
// bit grids keyed by (node index, item index) — one bit per pair
// instead of a ~50-byte map entry per pair — and the 32-byte hashes
// survive only at the observer boundary, where reports need them, and
// in compact reconstruction's check of a sketch against the pool.

// itemIndex interns hashes to dense indices, and keeps the way back:
// hashes[i] is the hash interned as i. One instance per item family
// (blocks, transactions) per network; the map here is the single
// hash-keyed structure the whole node core retains.
//
// Interning happens only while the run is single-threaded — Inject*
// (phase A on region lanes) — and covers every hash a flight can name:
// an injected block's own and its parent's (whose index
// Network.blockParent keeps beside the block's body), an injected
// transaction's. What a lane runs only reads: lookup, or on a delivery
// no map at all — the index travels in the flight, blockParent names
// the parent a catch-up fetch asks for, and hashes (for a transaction,
// Network.txs) gives the hash back.
type itemIndex struct {
	idx    map[types.Hash]int32
	hashes []types.Hash
}

// lookup returns the index for h if it has been interned.
func (x *itemIndex) lookup(h types.Hash) (int32, bool) {
	i, ok := x.idx[h]
	return i, ok
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
// stride doubles, re-laying rows out), rows as churn adds nodes. Its
// row count is reserved with the network's nodes (Network.Reserve), so
// each re-layout leaves room for every reserved row and only rows past
// the reservation double the words.
type bitGrid struct {
	words  []uint64
	stride int32 // words per row
	rows   int32
	// rowCap is the reserved row count: each re-layout gives the words
	// capacity for max(rows, rowCap) rows.
	rowCap int32
}

// reserveRows reserves room for n rows.
func (g *bitGrid) reserveRows(n int32) {
	g.rowCap = max(g.rowCap, n)
	g.words = grownTo(g.words, int(g.rowCap)*int(g.stride))
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
	nw := make([]uint64, int(g.rows)*int(ns), int(max(g.rows, g.rowCap))*int(ns))
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
	if total > cap(g.words) {
		g.words = grownTo(g.words, max(total, 2*cap(g.words)))
	}
	old := len(g.words)
	g.words = g.words[:total]
	clear(g.words[old:])
	g.rows = need
}
