package p2p

import (
	"fmt"

	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// relayEnv is the p2p implementation of relay.Env: the narrow,
// allocation-free view of one node's network surface that relay
// protocols drive. Each lane keeps a single instance and repoints it
// per dispatch (envFor); protocol calls are strictly nested inside one
// engine event, so the lane's scratch is never aliased.
//
// relay.Env speaks hashes; the node core speaks interned indices. The
// env bridges the two without hashing: it is pointed at the block the
// dispatch is about, and a hash the protocol hands back is recognised
// as that block by one 32-byte compare against the index→hash table.
type relayEnv struct {
	net *Network
	// lane is the owning netLane: the source of scratch buffers and RNG
	// draws for every call made through this env.
	lane    *netLane
	nodeIdx int32
	// now is the virtual time of the event this env was repointed for.
	// Deferred scheduling (ScheduleWave) is anchored to it rather than
	// to an engine clock: on region lanes the executing engine's clock
	// can trail the event time (phase A runs on the global lane).
	now sim.Time
	// fromIdx/fromPos record the sender of the message currently being
	// dispatched (and its validated position in the node's span), so
	// protocol pulls back to the sender derive the reverse position in
	// O(1). -1 outside a message dispatch.
	fromIdx int32
	fromPos int32
	// block is the interned index of the block the env last resolved —
	// the dispatch's block, until Candidates is asked about another —
	// and slot its slot in the node's suppression window (slotUnknown
	// until something scanned for it, -1 when not in the window). No
	// call between a scan and the fan-out using it changes the window,
	// so the pushes set edge bits straight from slot.
	block int32
	slot  int32
	// cand is the candidate view filled by Candidates — span positions
	// into the node's adjacency window, backed by the lane's scratch
	// buffer candBuf.
	cand []int32
}

var _ relay.Env = (*relayEnv)(nil)

// envFor points the lane's reusable relay.Env view at its node i for a
// dispatch at virtual time now about block (fields as in relayEnv;
// fromIdx and pos are -1 outside a message dispatch).
func (ln *netLane) envFor(i int32, now sim.Time, fromIdx, pos, block, slot int32) *relayEnv {
	ln.env = relayEnv{
		net: ln.net, lane: ln, nodeIdx: i, now: now,
		fromIdx: fromIdx, fromPos: pos, block: block, slot: slot,
	}
	return &ln.env
}

// index resolves a block hash from the protocol to its interned index:
// the block the env is pointed at costs one compare, any other a
// read-only map lookup.
func (e *relayEnv) index(h types.Hash) (int32, bool) {
	if e.block >= 0 && e.net.blockIdx.hashes[e.block] == h {
		return e.block, true
	}
	return e.net.blockIdx.lookup(h)
}

// mustIndex is index for a hash about to go on the wire or key state:
// never interned is a panic (itemIndex.mustLookup).
func (e *relayEnv) mustIndex(h types.Hash) int32 {
	if idx, ok := e.index(h); ok {
		return idx
	}
	return e.net.blockIdx.mustLookup(h)
}

// NodeID is the hosting node's identifier.
func (e *relayEnv) NodeID() int { return int(e.nodeIdx) + 1 }

// HasBlock reports whether the node holds the full block.
func (e *relayEnv) HasBlock(h types.Hash) bool {
	idx, ok := e.index(h)
	return ok && e.net.haveBits.get(e.nodeIdx, idx)
}

// KnownTx reports transaction-pool visibility (gossip-seen hashes).
func (e *relayEnv) KnownTx(h types.Hash) bool {
	idx, ok := e.net.txIdx.lookup(h)
	return ok && e.net.txBits.get(e.nodeIdx, idx)
}

// Candidates fills the lane scratch with the span positions of the
// node's peers not yet known to have h, in peer order, and returns the
// count. At most one window scan up front (none when the dispatch
// already made it), then one mask bit per peer. It leaves the env
// pointed at h's (index, slot) for the pushes that follow.
func (e *relayEnv) Candidates(h types.Hash) int {
	c := e.lane.candBuf[:0]
	i := e.nodeIdx
	s := e.net.top.spans[i]
	idx, ok := e.index(h)
	if !ok {
		e.block, e.slot = -1, -1
	} else if idx != e.block || e.slot == slotUnknown {
		e.block, e.slot = idx, e.net.windowSlot(i, idx)
	}
	if e.slot < 0 {
		// Block outside the suppression window: every peer is a
		// candidate.
		for p := int32(0); p < s.len; p++ {
			c = append(c, p)
		}
	} else {
		bit := uint64(1) << uint(e.slot)
		spilled := len(e.net.spill[i]) > 0
		for p := int32(0); p < s.len; p++ {
			if e.net.top.knowMask[s.off+p]&bit != 0 {
				continue
			}
			if spilled && e.net.spillHas(i, e.net.top.adj[s.off+p], e.slot) {
				continue
			}
			c = append(c, p)
		}
	}
	e.lane.candBuf = c[:0]
	e.cand = c
	return len(c)
}

// Fanout returns a lane-scratch random permutation of [0, n), drawn
// exactly as rng.Perm(n) would be from the lane's stream.
func (e *relayEnv) Fanout(n int) []int {
	ln := e.lane
	if cap(ln.orderBuf) < n {
		ln.orderBuf = make([]int, n)
	}
	out := ln.orderBuf[:n]
	ln.rng.PermInto(out)
	return out
}

// push sends candidate i a message of the given kind about the block
// Candidates enumerated for, marking the peer as knowing it: the edge
// bit is set straight from the memoised slot, adding the block to the
// window on the first push if it was not there.
func (e *relayEnv) push(i int, at sim.Time, kind MsgKind, h types.Hash, b *types.Block) {
	if e.block < 0 || e.net.blockIdx.hashes[e.block] != h {
		panic(fmt.Sprintf("p2p: relay pushed %v to candidates enumerated for another block", h))
	}
	edge := e.net.top.spans[e.nodeIdx].off + e.cand[i]
	if e.slot < 0 {
		e.slot = e.net.windowAdd(e.nodeIdx, e.block)
	}
	e.net.top.knowMask[edge] |= 1 << uint(e.slot)
	f := flight{
		to: e.net.top.adj[edge], from: e.nodeIdx, srcPos: e.net.top.revAdj[edge],
		kind: kind, block: e.block, b: b,
	}
	e.net.send(at, &f)
}

// PushBlock sends the full body to candidate i, marking it known.
func (e *relayEnv) PushBlock(i int, at sim.Time, b *types.Block) {
	e.push(i, at, MsgNewBlock, b.Hash(), b)
}

// PushCompact sends a short-ID sketch to candidate i, marking it
// known (it will hold the block after reconstruction or fallback).
func (e *relayEnv) PushCompact(i int, at sim.Time, b *types.Block) {
	e.push(i, at, MsgCompactBlock, b.Hash(), b)
}

// Announce sends a hash announcement to candidate i.
func (e *relayEnv) Announce(i int, at sim.Time, h types.Hash) {
	e.push(i, at, MsgNewBlockHashes, h, nil)
}

// srcPosFor returns the position of the hosting node in the target's
// span for a pull send: protocols pull from the sender of the message
// being dispatched, whose reverse position is one arena read away.
// -1 otherwise (the receiver falls back to a scan).
func (e *relayEnv) srcPosFor(toIdx int32) int32 {
	if toIdx == e.fromIdx && e.fromPos >= 0 {
		return e.net.top.revAdj[e.net.top.spans[e.nodeIdx].off+e.fromPos]
	}
	return -1
}

// request sends peer a pull of the given kind for block h; unknown
// peers and self-sends are refused.
func (e *relayEnv) request(peer int, at sim.Time, kind MsgKind, h types.Hash, count, bytes int) {
	to := int32(peer - 1)
	if e.net.nodeByID(NodeID(peer)) == nil || to == e.nodeIdx {
		return
	}
	f := flight{
		to: to, from: e.nodeIdx, srcPos: e.srcPosFor(to),
		kind: kind, block: e.mustIndex(h), txCount: int32(count), txBytes: int32(bytes),
	}
	e.net.send(at, &f)
}

// RequestBlock asks peer for the full body (GetBlock).
func (e *relayEnv) RequestBlock(peer int, at sim.Time, h types.Hash) {
	e.request(peer, at, MsgGetBlock, h, 0, 0)
}

// RequestCompact asks peer for a sketch (GetCompact).
func (e *relayEnv) RequestCompact(peer int, at sim.Time, h types.Hash) {
	e.request(peer, at, MsgGetCompact, h, 0, 0)
}

// RequestTxns runs the missing-transaction round trip's request leg.
func (e *relayEnv) RequestTxns(peer int, at sim.Time, h types.Hash, count, bytes int) {
	e.request(peer, at, MsgGetBlockTxns, h, count, bytes)
}

// ScheduleWave queues the node's deferred announce wave, anchored to
// the event time this env was repointed for.
func (e *relayEnv) ScheduleWave(delay sim.Time, h types.Hash, origin bool) {
	e.net.scheduleAnnounce(e.now+delay, e.nodeIdx, e.mustIndex(h), origin)
}

// AcceptBlock hands the node a fully available body.
func (e *relayEnv) AcceptBlock(now sim.Time, b *types.Block) {
	idx, slot := e.mustIndex(b.Hash()), slotUnknown
	if idx == e.block {
		slot = e.slot
	}
	e.net.acceptBlock(e.nodeIdx, now, b, idx, slot, false)
}

// SetPending records an in-flight reconstruction or fallback fetch.
func (e *relayEnv) SetPending(h types.Hash, b *types.Block) bool {
	i := e.nodeIdx
	idx := e.mustIndex(h)
	for _, p := range e.net.pending[i] {
		if p.idx == idx {
			return false
		}
	}
	e.net.pending[i] = append(e.net.pending[i], pendingEntry{idx: idx, b: b})
	return true
}

// HasPending reports an in-flight fetch for h.
func (e *relayEnv) HasPending(h types.Hash) bool {
	idx, ok := e.index(h)
	if !ok {
		return false
	}
	for _, p := range e.net.pending[e.nodeIdx] {
		if p.idx == idx {
			return true
		}
	}
	return false
}

// TakePending removes and returns the pending entry for h.
func (e *relayEnv) TakePending(h types.Hash) (*types.Block, bool) {
	idx, ok := e.index(h)
	if !ok {
		return nil, false
	}
	ps := e.net.pending[e.nodeIdx]
	for k := range ps {
		if ps[k].idx == idx {
			b := ps[k].b
			ps[k] = ps[len(ps)-1]
			e.net.pending[e.nodeIdx] = ps[:len(ps)-1]
			return b, true
		}
	}
	return nil, false
}
