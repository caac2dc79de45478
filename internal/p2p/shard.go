package p2p

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

// The region lanes on a conductor: EnableSharding binds each region's
// netLane to a region lane of a sim.Conductor. The lane decomposition
// is fixed by the region enum — never by worker count, nor by whether
// the lanes share one engine — so every lane's event schedule and RNG
// stream is identical at any shard setting, which is what makes
// artifacts byte-identical across shard counts.
//
// Ownership rules (the whole memory model):
//
//   - Per-node state (node rows, bit rows, caches, suppression
//     windows) is only ever written — and, but for Network.regions and
//     Network.down, only ever read — by the lane owning that node's
//     region, or by the global lane while every region engine is idle
//     (phase A). Shared arenas that grow by reallocation — the bit
//     grids, the block-body table and the body-cache rings — are
//     presized after each phase A (presizeArenas), so phase B only
//     writes in place; the item indices (items.go) grow only in phase
//     A and lanes only read them.
//   - Everything else the transport touches is a netLane field, so it
//     is lane-local by construction; the lane counters fold into the
//     Network's public totals at FoldLanes.
//   - A send whose destination lives in another lane NEVER touches the
//     destination lane: it is buffered as a crossMsg and drained by
//     mergeCross at the next conductor merge point, single-threaded,
//     ordered on the destination engine by (arrival, source lane,
//     lifetime emission number) via the engine's ordered tie band.

// crossMsg is one buffered cross-lane delivery: the flight by value,
// its arrival time, and the source lane's lifetime emission number.
type crossMsg struct {
	at  sim.Time
	seq uint64
	f   flight
}

// EnableSharding moves each region's lane onto its conductor region
// lane, with its own cross-lane outboxes, counting privately until
// FoldLanes. Call it after the overlay is built and before any traffic.
func (net *Network) EnableSharding(cond *sim.Conductor) {
	if cond.Regions() != geo.NumRegions {
		panic("p2p: conductor must have one lane per region")
	}
	for _, ln := range net.all {
		ln.engine = cond.Lane(ln.pos)
		ln.ctr = new(transportCounters)
		ln.cross = make([][]crossMsg, geo.NumRegions)
	}
	net.cond, net.mergeInto = cond, net.mergeTo
	cond.Merge = net.mergeCross
	cond.AfterGlobal = net.presizeArenas
}

// presizeArenas is the conductor's AfterGlobal hook: it grows the
// shared bit grids, the per-block tables and the body-cache rings to
// cover every node and every item interned so far, so phase B lanes
// never trigger a concurrent reallocation. New items only enter through phase A
// (mining and workload injection); phase B never interns.
func (net *Network) presizeArenas() {
	rows, blocks := int32(net.nextID), int32(len(net.blockIdx.hashes))
	net.haveBits.presize(rows, blocks)
	net.seenBits.presize(rows, blocks)
	net.cachedBits.presize(rows, blocks)
	net.txBits.presize(rows, int32(len(net.txIdx.hashes)))
	net.growBlocks(int(blocks))
	// A node caches at most every interned block.
	if s := min(blocks, blockCacheCap); s > net.cacheStride {
		net.growCacheStride(s)
	}
}

// mergeCross is the conductor's Merge hook: it drains every lane's
// cross outboxes into the destination lanes' flight slabs, one job per
// destination lane on the conductor's workers (sim.Conductor.Each).
// All lanes are idle when it runs, and a job touches only its
// destination's engine and slab and the outboxes addressed to it.
// Equal-time ordering on the destination engine comes from the (source
// lane, lifetime emission number) tie key, a pure function of each
// source lane's own execution — never of worker interleaving,
// merge-batch composition, or the lookahead bound matrix. Two sharded
// runs that differ only in window sizing therefore build byte-identical
// destination schedules.
func (net *Network) mergeCross() int {
	net.cond.Each(len(net.all), net.mergeInto)
	n := 0
	for _, ln := range net.all {
		n += ln.merged
	}
	return n
}

// mergeTo drains every source lane's outbox for destination lane d, in
// (source lane, emission number) order — the order a single pass over
// all outboxes in lane order would reach them — so the destination's
// slab slots and engine counters do not depend on how the merge is
// split across workers.
func (net *Network) mergeTo(d int) {
	dl := net.all[d]
	n := 0
	for l, ln := range net.all {
		out := ln.cross[d]
		for k := range out {
			cm := &out[k]
			// Lookahead invariant: a cross-lane arrival is strictly in
			// the destination lane's future — send guarantees delay >=
			// the pair floor, and the conductor never ran the
			// destination past next(src) + bound - 1. A merge at or
			// before the lane clock would silently back-date the event
			// (the engine would clamp it to "now", reordering it after
			// same-time events that already ran), so corrupt time
			// discipline is a panic, not a skew.
			if now := dl.engine.Now(); cm.at <= now {
				panic(fmt.Sprintf("p2p: cross-lane merge back-dates event: arrival %d <= lane %v clock %d",
					cm.at, net.regions[cm.f.to], now))
			}
			dl.engine.ScheduleCallAtOrdered(cm.at, dl, opDeliver, uint64(dl.flights.put(&cm.f)), uint64(l)<<48|cm.seq)
		}
		n += len(out)
		ln.cross[d] = out[:0]
	}
	dl.merged = n
}

// FoldLanes moves every lane's counters into the Network's public
// totals, so the accounting surface (ClassTotals, MessagesSent,
// RelayCounters) covers conductor lanes too. Counts are moved, not
// copied — each is zeroed at its source — so folding again is a no-op,
// and on a shared engine, whose lanes already write the public totals,
// it changes nothing. Call it after the run drains.
func (net *Network) FoldLanes() {
	for _, ln := range net.all {
		ln.ctr.moveInto(&net.transportCounters)
	}
}

// presize grows the grid to cover rows×cols without setting any bit,
// so concurrent in-range set/get/clear calls never reallocate.
func (g *bitGrid) presize(rows, cols int32) {
	if cols > 0 {
		if w := (cols-1)>>6 + 1; w > g.stride {
			g.growStride(w)
		}
	}
	if rows > g.rows {
		g.growRows(rows)
	}
}

// precomputeSizes forces a block's lazily cached derived values (hash,
// encoded sizes) while single-threaded. Injection calls it so
// conductor lanes only ever read the caches concurrently in phase B.
func precomputeSizes(b *types.Block) {
	_ = b.Hash()
	_ = b.EncodedSize()
	_ = b.TxsSize()
	for _, tx := range b.Txs {
		_ = tx.Hash()
		_ = tx.EncodedSize()
	}
}
