package p2p

import (
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

// NodeID identifies a node. Ethereum derives neighbor relationships
// from random 512-bit node IDs; geographic position plays no role in
// peer selection (§III-B1), which the simulator mirrors by wiring the
// overlay uniformly at random. IDs are assigned sequentially from 1
// and never reused, so NodeID-1 indexes every flat per-node array.
type NodeID int

// Observer receives a callback for every message a node accepts from
// the wire, before protocol processing. The measurement layer hooks
// here — exactly where the paper's instrumented Geth placed its
// logging. msg is the lane's reusable view of the message (see
// Message): valid for the duration of the call only.
type Observer func(now sim.Time, from NodeID, msg *Message)

// Local protocol timing constants. The block-relay timings
// (validate, import, announce handling) moved to internal/p2p/relay
// with the dissemination logic; what remains here covers the
// protocol-independent serving and transaction paths.
const (
	announceHandleMillis  = 1
	txValidatePer100Txs   = 1
	blockRequestRespondMs = 1
)

// knownPeerCap bounds how many recent blocks a node tracks per-peer
// knowledge for. Older blocks are no longer in flight, so their
// suppression state can be dropped. It is exactly 64 so each directed
// edge's suppression state packs into one uint64 (see know.go).
const knownPeerCap = 64

// The window's ring arithmetic masks with knownPeerCap-1; this fails to
// compile unless the cap is a power of two.
const _ = uint(0 - knownPeerCap&(knownPeerCap-1))

// blockCacheCap bounds how many recent full-block bodies a node
// retains for serving GetBlock pulls, evicted FIFO in insertion order
// (deterministic). Pulls only ever target blocks still propagating —
// seconds old, a handful of heights deep — so a four-digit cap is far
// outside the in-flight window while keeping per-node memory O(cap)
// instead of O(chain length).
const blockCacheCap = 1024

// Node is a protocol-conformant network participant: it deduplicates,
// validates (as a time cost) and relays blocks and transactions, and
// suppresses sends to peers already known to have an item (Geth's
// per-peer known-set behavior — the mechanism behind the paper's
// Table II redundancy profile).
//
// A Node is a thin stable handle: all of its state lives in the
// Network's flat per-node arrays (struct-of-arrays), indexed by
// NodeID-1. Handles are arena-allocated by AddNode and never move, so
// callers can hold *Node across the whole campaign.
type Node struct {
	id  NodeID
	net *Network
}

// idx returns the node's index into the network's flat arrays.
func (n *Node) idx() int32 { return int32(n.id - 1) }

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.id }

// Region returns the node's geographic region.
func (n *Node) Region() geo.Region { return n.net.regions[n.idx()] }

// PeerCount returns the current number of connections.
func (n *Node) PeerCount() int { return n.net.top.degree(n.idx()) }

// Down reports whether the node is currently crashed or departed.
func (n *Node) Down() bool { return n.net.down[n.idx()] }

// Per-node transport accounting: messages and serialized bytes
// received (successful deliveries) and sent (after fault filtering).
func (n *Node) MessagesIn() uint64  { return n.net.rows[n.idx()].msgsIn }
func (n *Node) MessagesOut() uint64 { return n.net.rows[n.idx()].msgsOut }
func (n *Node) BytesIn() uint64     { return n.net.rows[n.idx()].bytesIn }
func (n *Node) BytesOut() uint64    { return n.net.rows[n.idx()].bytesOut }

// SetObserver installs a message observer (nil removes it).
func (n *Node) SetObserver(obs Observer) { n.net.rows[n.idx()].observer = obs }

// setRelayEnabled controls whether this node forwards what it
// receives. Measurement nodes relay like every other node (the
// paper's clients are indistinguishable from regular peers); the knob
// exists for ablations.
func (n *Node) setRelayEnabled(v bool) { n.net.rows[n.idx()].relayOn = v }

// KnowsBlock reports whether the node has received the full block.
func (n *Node) KnowsBlock(h types.Hash) bool {
	idx, ok := n.net.blockIdx.lookup(h)
	return ok && n.net.haveBits.get(n.idx(), idx)
}

// rememberBlock records node i's receipt of full block idx and caches
// the body for serving pulls, evicting the oldest body past the cap.
func (net *Network) rememberBlock(i, idx int32, b *types.Block) {
	for int(idx) >= len(net.blockBody) {
		net.blockBody = append(net.blockBody, nil)
	}
	net.haveBits.set(i, idx)
	if net.blockBody[idx] == nil {
		// The canonical body pointer for idx is always the same object
		// (blocks are built once by mining); setting it only on first
		// sight keeps phase-B lanes read-only here — the origin's
		// phase-A injection has already published it.
		net.blockBody[idx] = b
	}
	net.cacheQ[i] = append(net.cacheQ[i], idx)
	net.cachedBits.set(i, idx)
	if len(net.cacheQ[i]) > blockCacheCap {
		evict := net.cacheQ[i][0]
		net.cacheQ[i] = net.cacheQ[i][1:]
		net.cachedBits.clear(i, evict)
	}
}

// peerKnowsBlock reports whether the node knows that peer has h,
// resolving the peer's span position itself (test/diagnostic path; hot
// paths carry positions).
func (n *Node) peerKnowsBlock(h types.Hash, peer NodeID) bool {
	idx, ok := n.net.blockIdx.lookup(h)
	if !ok {
		return false
	}
	i := n.idx()
	pi := int32(peer - 1)
	return n.net.peerKnows(i, idx, pi, n.net.top.position(i, pi))
}

// handle processes one delivered flight at virtual time now, on the
// destination's lane. It and everything under it name nodes by index:
// a delivery never touches the *Node handle arena. f.srcPos is the
// sender's position in the destination's peer span as captured at send
// time (-1 unknown); it is validated here — spans shift under churn —
// and the validated position flows to every per-peer mark, so
// bookkeeping stays O(1) even at measurement-node degrees. The block is
// addressed by f.block: no arm hashes or looks anything up, and the one
// window scan an arm makes (markPeerKnows) is handed on to the
// protocol's fan-out via the env.
func (ln *netLane) handle(now sim.Time, f *flight) {
	net := ln.net
	i, fi := f.to, f.from
	row := &net.rows[i]
	if row.observer != nil {
		row.observer(now, NodeID(fi+1), ln.viewOf(f))
	}
	pos := f.srcPos
	sp := net.top.spans[i]
	if pos < 0 || pos >= sp.len || net.top.adj[sp.off+pos] != fi {
		pos = net.top.position(i, fi)
	}
	switch f.kind {
	case MsgNewBlock:
		if f.b == nil {
			return
		}
		slot := net.markPeerKnows(i, f.block, fi, pos)
		if net.ParentPull {
			net.maybePullParent(now, f, pos)
		}
		net.acceptBlock(i, now, f.b, f.block, slot, false)
	case MsgNewBlockHashes:
		// The announcer evidently has the block.
		slot := net.markPeerKnows(i, f.block, fi, pos)
		if !row.relayOn || net.seenBits.get(i, f.block) {
			return
		}
		net.seenBits.set(i, f.block)
		// Pull the unknown block from the announcer, in whatever form
		// the relay discipline fetches bodies.
		ln.proto.OnAnnouncePull(ln.envFor(i, now, fi, pos, f.block, slot), now, int(fi)+1, net.blockIdx.hashes[f.block])
	case MsgGetBlock, MsgGetCompact, MsgGetBlockTxns:
		ln.serve(now, f, pos)
	case MsgTransactions:
		net.handleTxs(i, now, fi, f.txs)
	case MsgCompactBlock:
		if f.b == nil || ln.compact == nil {
			return
		}
		slot := net.markPeerKnows(i, f.block, fi, pos)
		if net.ParentPull {
			net.maybePullParent(now, f, pos)
		}
		ln.compact.OnCompact(ln.envFor(i, now, fi, pos, f.block, slot), now, int(fi)+1, f.b)
	case MsgBlockTxns:
		if ln.compact == nil {
			return
		}
		ln.compact.OnBlockTxns(ln.envFor(i, now, fi, pos, f.block, slotUnknown), now, int(fi)+1, net.blockIdx.hashes[f.block])
	}
}

// respPos returns the srcPos to stamp on node i's reply to the sender
// whose validated position in i's span is pos: the reverse edge knows
// where i sits in the sender's span.
func (net *Network) respPos(i, pos int32) int32 {
	if pos < 0 {
		return -1
	}
	return net.top.revAdj[net.top.spans[i].off+pos]
}

// InjectBlock makes this node the origin of a freshly mined block
// (mining-pool gateways call this). The origin skips the import delay
// before announcing: the miner already executed its own block. A down
// node swallows the injection — the submitter hit a dead endpoint.
//
// This is where block hashes are interned (phase A on region lanes):
// the block's own and its parent's — the one other hash a flight can
// name (maybePullParent), and one no injection interned if a down
// gateway swallowed the parent.
func (n *Node) InjectBlock(now sim.Time, b *types.Block) {
	if b == nil || n.net.down[n.idx()] {
		return
	}
	// Both steps below are for concurrent region lanes only; a single
	// lane keeps its lazy fills and grow-on-demand arenas.
	sharded := n.net.Sharded()
	if sharded {
		// Force the block's lazily cached derived values while still
		// single-threaded (injection runs in phase A). Peers in
		// different lanes may serve the body concurrently later, and a
		// first-call cache fill from phase B would race.
		precomputeSizes(b)
	}
	idx := n.net.blockIdx.intern(b.Hash())
	if b.Header.Number >= 2 {
		n.net.blockIdx.intern(b.Header.ParentHash)
	}
	n.net.acceptBlock(n.idx(), now, b, idx, slotUnknown, true)
	if sharded {
		// Size the shared bit grids for the new indices now, while lanes
		// are idle. Growth from phase B would relocate grid storage
		// under concurrent lane reads — conductor-driven runs presize
		// again via AfterGlobal, but direct injections (workloads,
		// tests) get no phase A.
		n.net.presizeArenas()
	}
}

// InjectTx makes this node the origin of a new transaction. Like
// InjectBlock, a down node loses the submission.
func (n *Node) InjectTx(now sim.Time, tx *types.Transaction) {
	if n.net.down[n.idx()] {
		return
	}
	sharded := n.net.Sharded()
	if sharded {
		// Same phase-A cache-fill rule as InjectBlock.
		_ = tx.Hash()
		_ = tx.EncodedSize()
	}
	// The one place a transaction hash is interned (see InjectBlock).
	n.net.txIdx.intern(tx.Hash())
	n.net.handleTxs(n.idx(), now, n.idx(), []*types.Transaction{tx})
	if sharded {
		// Same phase-A presize rule as InjectBlock (txBits grew).
		n.net.presizeArenas()
	}
}

// maybePullParent is the catch-up fetch (Network.ParentPull): a block
// whose parent was never received — the partition-era gap — triggers a
// GetBlock for that parent from the block's sender. The response is a
// NewBlock, so the pull walks the missing ancestry recursively until
// it reaches known ground; the sender serves from its FIFO body cache,
// which comfortably covers any realistic outage window. The pull is
// deliberately NOT recorded in seenHashes: a pull can itself be lost
// to the very faults it recovers from, so every received copy of a
// gap's descendant retries it (a handful of redundant fetches, deduped
// by haveBlocks on arrival) until the parent actually lands.
func (net *Network) maybePullParent(now sim.Time, f *flight, pos int32) {
	if f.b.Header.Number < 2 {
		return
	}
	parent := net.blockIdx.mustLookup(f.b.Header.ParentHash)
	if net.haveBits.get(f.to, parent) {
		return
	}
	pull := flight{to: f.from, from: f.to, srcPos: net.respPos(f.to, pos), kind: MsgGetBlock, block: parent}
	net.send(now+announceHandleMillis, &pull)
}

// acceptBlock records receipt of a full block body (interned as idx)
// and hands onward dissemination to the network's relay protocol.
// origin marks the block miner's own gateway, which pays no import
// delay before announcing; slot is idx's suppression-window slot if
// the caller scanned for it, else slotUnknown. This is the state half
// of the pre-extraction relayBlock; the dissemination half (push wave,
// announce wave) lives in the protocol's OnBlock/OnWave.
func (net *Network) acceptBlock(i int32, now sim.Time, b *types.Block, idx, slot int32, origin bool) {
	if net.haveBits.get(i, idx) {
		return
	}
	net.rememberBlock(i, idx, b)
	net.seenBits.set(i, idx)
	if p := net.pending[i]; len(p) > 0 {
		// A body arriving through any path settles an in-flight
		// compact fetch.
		for k := range p {
			if p[k].idx == idx {
				p[k] = p[len(p)-1]
				net.pending[i] = p[:len(p)-1]
				break
			}
		}
	}
	if !net.rows[i].relayOn || net.top.degree(i) == 0 {
		return
	}
	ln := net.laneOf(i)
	ln.proto.OnBlock(ln.envFor(i, now, -1, -1, idx, slot), now, b, origin)
}

// serve answers the three pulls — GetBlock with the body, GetCompact
// with a sketch, GetBlockTxns with the missing-transaction response —
// for a block still in the node's FIFO body cache; other requests are
// dropped. The BlockTxns reply echoes the requester-computed count and
// byte total: the simulation models the round trip's timing and
// bandwidth, the content travels in the retained sketch's object graph.
func (ln *netLane) serve(now sim.Time, f *flight, pos int32) {
	net := ln.net
	if !net.cachedBits.get(f.to, f.block) {
		return
	}
	net.markPeerKnows(f.to, f.block, f.from, pos)
	reply := flight{to: f.from, from: f.to, srcPos: net.respPos(f.to, pos), block: f.block}
	switch f.kind {
	case MsgGetBlock:
		reply.kind, reply.b = MsgNewBlock, net.blockBody[f.block]
	case MsgGetCompact:
		// Pull responses count as sent sketches alongside the push
		// wave's, keeping Counters.SketchesSent equal to the
		// CompactBlock class counter.
		ln.proto.Counters().SketchesSent++
		reply.kind, reply.b = MsgCompactBlock, net.blockBody[f.block]
	case MsgGetBlockTxns:
		reply.kind, reply.txCount, reply.txBytes = MsgBlockTxns, f.txCount, f.txBytes
	}
	net.send(now+blockRequestRespondMs, &reply)
}

// handleTxs admits a transaction batch at node i from node `from` (i
// itself for an injection) and gossips what was new to i's other peers.
func (net *Network) handleTxs(i int32, now sim.Time, from int32, txs []*types.Transaction) {
	var fresh []*types.Transaction
	for _, tx := range txs {
		if tx == nil {
			continue
		}
		idx := net.txIdx.mustLookup(tx.Hash())
		if net.txBits.get(i, idx) {
			continue
		}
		net.txBits.set(i, idx)
		fresh = append(fresh, tx)
	}
	if len(fresh) == 0 || !net.rows[i].relayOn {
		return
	}
	delay := sim.Time(1 + len(fresh)/100*txValidatePer100Txs)
	s := net.top.spans[i]
	// One flight, re-addressed per peer; the fresh batch slice is shared
	// by every copy and never rewritten.
	out := flight{from: i, kind: MsgTransactions, block: -1, txs: fresh}
	for p := int32(0); p < s.len; p++ {
		e := s.off + p
		if net.top.adj[e] == from {
			continue
		}
		out.to, out.srcPos = net.top.adj[e], net.top.revAdj[e]
		net.send(now+delay, &out)
	}
}
