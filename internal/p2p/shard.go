package p2p

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// The region-lane layout: one netLane per geographic region, each bound
// to a region lane of a sim.Conductor. The lane decomposition is fixed
// by the region enum — never by worker count — so every lane's event
// schedule and RNG stream is identical at any shard setting, which is
// what makes sharded artifacts byte-identical across shard counts.
//
// Ownership rules (the whole memory model):
//
//   - Per-node state (node rows, bit rows, caches, suppression
//     windows) is only ever written — and, but for Network.regions and
//     Network.down, only ever read — by the lane owning that node's
//     region, or by the global lane while every region engine is idle
//     (phase A). Shared arenas that grow by reallocation — the bit
//     grids and the block-body table — are presized after each phase A
//     (presizeArenas), so phase B only writes in place; the item
//     indices (items.go) grow only in phase A and lanes only read them.
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

// EnableSharding replaces the home lane with one lane per conductor
// region lane. newProto constructs one relay protocol instance per
// lane (same configuration as the network's primary — per-lane
// counters fold back into the primary at FoldLanes). Call it after the
// overlay is built and before the run starts; per-lane RNG streams
// fork from the network RNG here, after all wiring draws.
func (net *Network) EnableSharding(cond *sim.Conductor, newProto func() relay.Protocol) {
	if cond.Regions() != geo.NumRegions {
		panic("p2p: conductor must have one lane per region")
	}
	net.all = nil
	for r := geo.Region(1); r <= geo.NumRegions; r++ {
		ln := newLane(net, cond.Lane(int(r)-1), net.rng.Fork("lane-"+r.String()), new(transportCounters))
		ln.setProto(newProto())
		net.lanes[r] = ln
		net.all = append(net.all, ln)
	}
	cond.Merge = net.mergeCross
	cond.AfterGlobal = net.presizeArenas
}

// presizeArenas is the conductor's AfterGlobal hook: it grows the
// shared bit grids and the block-body table to cover every node and
// every item interned so far, so phase B lanes never trigger a
// concurrent reallocation. New items only enter through phase A
// (mining and workload injection); phase B never interns.
func (net *Network) presizeArenas() {
	rows, blocks := int32(net.nextID), int32(len(net.blockIdx.hashes))
	net.haveBits.presize(rows, blocks)
	net.seenBits.presize(rows, blocks)
	net.cachedBits.presize(rows, blocks)
	net.txBits.presize(rows, int32(len(net.txIdx.hashes)))
	for int(blocks) > len(net.blockBody) {
		net.blockBody = append(net.blockBody, nil)
	}
}

// mergeCross is the conductor's Merge hook: it drains every lane's
// cross buffer into the destination lanes' flight slabs. All lanes
// are idle when it runs, so taking destination slots here is
// single-threaded. Equal-time ordering on the destination engine comes
// from the (source lane, lifetime emission number) tie key, a pure
// function of each source lane's own execution — never of worker
// interleaving, merge-batch composition, or the lookahead bound
// matrix. Two sharded runs that differ only in window sizing therefore
// build byte-identical destination schedules.
func (net *Network) mergeCross() int {
	n := 0
	for l, ln := range net.all {
		for k := range ln.cross {
			cm := &ln.cross[k]
			dl := net.laneOf(cm.f.to)
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
			dl.engine.ScheduleCallAtOrdered(cm.at, dl, opDeliver, uint64(dl.putFlight(&cm.f)), uint64(l)<<48|cm.seq)
			n++
		}
		// Zero drained entries so the backing array retains no payloads.
		clear(ln.cross)
		ln.cross = ln.cross[:0]
	}
	return n
}

// FoldLanes moves every lane's transport and protocol counters into
// the Network's public totals and the primary relay protocol's
// counters, so the accounting surface (ClassTotals, MessagesSent,
// Relay().Counters()) covers region lanes too. Counts are moved, not
// copied — each is zeroed at its source — so folding again is a no-op,
// and on the one-lane layout, where the home lane already writes the
// public totals, it changes nothing. Call it after the run drains.
func (net *Network) FoldLanes() {
	pc := net.home.proto.Counters()
	for _, ln := range net.all {
		ln.ctr.moveInto(&net.transportCounters)
		lc := ln.proto.Counters()
		v := *lc
		*lc = relay.Counters{}
		pc.Add(v)
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
// encoded sizes) while single-threaded. Injection paths call it so
// phase-B lanes only ever read the caches concurrently.
func precomputeSizes(b *types.Block) {
	_ = b.Hash()
	_ = b.EncodedSize()
	_ = b.TxsSize()
	for _, tx := range b.Txs {
		_ = tx.Hash()
		_ = tx.EncodedSize()
	}
}
