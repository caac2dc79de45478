package p2p

import (
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// relayEnv is the p2p implementation of relay.Env: the narrow,
// allocation-free view of one node's network surface that relay
// protocols drive. Each lane keeps a single instance and repoints it
// per dispatch (envFor / envForMsg); protocol calls are strictly
// nested inside one engine event, so the lane's scratch is never
// aliased.
type relayEnv struct {
	net *Network
	// lane is the owning netLane: the source of scratch buffers, RNG
	// draws and message pool for every call made through this env.
	lane    *netLane
	node    *Node
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
	// cand is the candidate view filled by Candidates — span positions
	// into the node's adjacency window, backed by the lane's scratch
	// buffer candBuf.
	cand []int32
}

var _ relay.Env = (*relayEnv)(nil)

// NodeID is the hosting node's identifier.
func (e *relayEnv) NodeID() int { return int(e.node.id) }

// HasBlock reports whether the node holds the full block.
func (e *relayEnv) HasBlock(h types.Hash) bool {
	idx, ok := e.net.blockIdx.lookup(h)
	return ok && e.net.haveBits.get(e.nodeIdx, idx)
}

// KnownTx reports transaction-pool visibility (gossip-seen hashes).
func (e *relayEnv) KnownTx(h types.Hash) bool {
	idx, ok := e.net.txIdx.lookup(h)
	return ok && e.net.txBits.get(e.nodeIdx, idx)
}

// Candidates fills the lane scratch with the span positions of the
// node's peers not yet known to have h, in peer order, and returns the
// count. One window lookup up front, then one mask bit per peer — no
// per-peer hashing.
func (e *relayEnv) Candidates(h types.Hash) int {
	c := e.lane.candBuf[:0]
	i := e.nodeIdx
	s := e.net.top.spans[i]
	slot := int32(-1)
	if idx, ok := e.net.blockIdx.lookup(h); ok {
		slot = e.net.windowSlot(i, idx)
	}
	if slot < 0 {
		// Block outside the suppression window: every peer is a
		// candidate.
		for p := int32(0); p < s.len; p++ {
			c = append(c, p)
		}
	} else {
		bit := uint64(1) << uint(slot)
		spilled := len(e.net.spill[i]) > 0
		for p := int32(0); p < s.len; p++ {
			if e.net.top.knowMask[s.off+p]&bit != 0 {
				continue
			}
			if spilled && e.net.spillHas(i, e.net.top.adj[s.off+p], slot) {
				continue
			}
			c = append(c, p)
		}
	}
	e.lane.candBuf = c[:0]
	e.cand = c
	return len(c)
}

// Fanout returns a lane-scratch random permutation of [0, n).
func (e *relayEnv) Fanout(n int) []int { return e.lane.fanoutOrder(n) }

// peerAt resolves candidate i to its span position, edge index and
// node handle.
func (e *relayEnv) peerAt(i int) (pos, edge int32, peer *Node) {
	pos = e.cand[i]
	edge = e.net.top.spans[e.nodeIdx].off + pos
	return pos, edge, e.net.NodeAt(int(e.net.top.adj[edge]))
}

// PushBlock sends the full body to candidate i, marking it known.
func (e *relayEnv) PushBlock(i int, at sim.Time, b *types.Block) {
	pos, edge, peer := e.peerAt(i)
	e.node.markPeerKnows(b.Hash(), peer.id, pos)
	m := e.net.newMessage(e.nodeIdx, MsgNewBlock)
	m.Block = b
	e.net.send(at, e.node, peer, m, e.net.top.revAdj[edge])
}

// PushCompact sends a short-ID sketch to candidate i, marking it
// known (it will hold the block after reconstruction or fallback).
func (e *relayEnv) PushCompact(i int, at sim.Time, b *types.Block) {
	pos, edge, peer := e.peerAt(i)
	e.node.markPeerKnows(b.Hash(), peer.id, pos)
	m := e.net.newMessage(e.nodeIdx, MsgCompactBlock)
	m.Block = b
	e.net.send(at, e.node, peer, m, e.net.top.revAdj[edge])
}

// Announce sends a hash announcement to candidate i.
func (e *relayEnv) Announce(i int, at sim.Time, h types.Hash) {
	pos, edge, peer := e.peerAt(i)
	e.node.markPeerKnows(h, peer.id, pos)
	m := e.net.newMessage(e.nodeIdx, MsgNewBlockHashes)
	m.hash1[0] = h
	m.Hashes = m.hash1[:1]
	e.net.send(at, e.node, peer, m, e.net.top.revAdj[edge])
}

// peerByID resolves a pull target, refusing self-sends.
func (e *relayEnv) peerByID(peer int) *Node {
	to := e.net.nodeByID(NodeID(peer))
	if to == nil || to.id == e.node.id {
		return nil
	}
	return to
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

// RequestBlock asks peer for the full body (GetBlock).
func (e *relayEnv) RequestBlock(peer int, at sim.Time, h types.Hash) {
	to := e.peerByID(peer)
	if to == nil {
		return
	}
	m := e.net.newMessage(e.nodeIdx, MsgGetBlock)
	m.Want = h
	e.net.send(at, e.node, to, m, e.srcPosFor(to.idx()))
}

// RequestCompact asks peer for a sketch (GetCompact).
func (e *relayEnv) RequestCompact(peer int, at sim.Time, h types.Hash) {
	to := e.peerByID(peer)
	if to == nil {
		return
	}
	m := e.net.newMessage(e.nodeIdx, MsgGetCompact)
	m.Want = h
	e.net.send(at, e.node, to, m, e.srcPosFor(to.idx()))
}

// RequestTxns runs the missing-transaction round trip's request leg.
func (e *relayEnv) RequestTxns(peer int, at sim.Time, h types.Hash, count, bytes int) {
	to := e.peerByID(peer)
	if to == nil {
		return
	}
	m := e.net.newMessage(e.nodeIdx, MsgGetBlockTxns)
	m.Want = h
	m.TxCount = count
	m.TxBytes = bytes
	e.net.send(at, e.node, to, m, e.srcPosFor(to.idx()))
}

// ScheduleWave queues the node's deferred announce wave, anchored to
// the event time this env was repointed for.
func (e *relayEnv) ScheduleWave(delay sim.Time, h types.Hash, origin bool) {
	e.net.scheduleAnnounce(e.now+delay, e.node, h, origin)
}

// AcceptBlock hands the node a fully available body.
func (e *relayEnv) AcceptBlock(now sim.Time, b *types.Block) {
	e.node.acceptBlock(now, b, false)
}

// SetPending records an in-flight reconstruction or fallback fetch.
func (e *relayEnv) SetPending(h types.Hash, b *types.Block) bool {
	i := e.nodeIdx
	idx := e.net.blockIdx.intern(h)
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
	idx, ok := e.net.blockIdx.lookup(h)
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
	idx, ok := e.net.blockIdx.lookup(h)
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
