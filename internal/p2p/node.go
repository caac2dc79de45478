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
// logging.
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
func (n *Node) MessagesIn() uint64  { return n.net.msgsIn[n.idx()] }
func (n *Node) MessagesOut() uint64 { return n.net.msgsOut[n.idx()] }
func (n *Node) BytesIn() uint64     { return n.net.bytesIn[n.idx()] }
func (n *Node) BytesOut() uint64    { return n.net.bytesOut[n.idx()] }

// SetObserver installs a message observer (nil removes it).
func (n *Node) SetObserver(obs Observer) { n.net.observers[n.idx()] = obs }

// setRelayEnabled controls whether this node forwards what it
// receives. Measurement nodes relay like every other node (the
// paper's clients are indistinguishable from regular peers); the knob
// exists for ablations.
func (n *Node) setRelayEnabled(v bool) { n.net.relayOn[n.idx()] = v }

// KnowsBlock reports whether the node has received the full block.
func (n *Node) KnowsBlock(h types.Hash) bool {
	idx, ok := n.net.blockIdx.lookup(h)
	return ok && n.net.haveBits.get(n.idx(), idx)
}

// rememberBlock records full-block receipt and caches the body for
// GetBlock serving, evicting the oldest cached body past the cap.
func (n *Node) rememberBlock(h types.Hash, b *types.Block) {
	i := n.idx()
	idx := n.net.blockIdx.intern(h)
	for int(idx) >= len(n.net.blockBody) {
		n.net.blockBody = append(n.net.blockBody, nil)
	}
	n.net.haveBits.set(i, idx)
	if n.net.blockBody[idx] == nil {
		// The canonical body pointer for idx is always the same object
		// (blocks are built once by mining); setting it only on first
		// sight keeps phase-B lanes read-only here — the origin's
		// phase-A injection has already published it.
		n.net.blockBody[idx] = b
	}
	n.net.cacheQ[i] = append(n.net.cacheQ[i], idx)
	n.net.cachedBits.set(i, idx)
	if len(n.net.cacheQ[i]) > blockCacheCap {
		evict := n.net.cacheQ[i][0]
		n.net.cacheQ[i] = n.net.cacheQ[i][1:]
		n.net.cachedBits.clear(i, evict)
	}
}

// cachedBlock returns the body for h if it is still in the node's
// FIFO serving cache.
func (n *Node) cachedBlock(h types.Hash) (*types.Block, bool) {
	idx, ok := n.net.blockIdx.lookup(h)
	if !ok || !n.net.cachedBits.get(n.idx(), idx) {
		return nil, false
	}
	return n.net.blockBody[idx], true
}

// markPeerKnows records that a peer has (or will shortly have) the
// block, suppressing future sends of it to that peer. pos is the
// peer's validated position in this node's span, or -1 when the peer
// is not (or no longer) connected.
func (n *Node) markPeerKnows(h types.Hash, peer NodeID, pos int32) {
	n.net.markPeerKnows(n.idx(), n.net.blockIdx.intern(h), int32(peer-1), pos)
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

// handle processes one incoming message at virtual time now. srcPos
// is the sender's position in this node's peer span as captured at
// send time (-1 unknown); it is validated here — spans shift under
// churn — and the validated position flows to every per-peer mark, so
// bookkeeping stays O(1) per message even at measurement-node degrees.
func (n *Node) handle(now sim.Time, from NodeID, srcPos int32, msg *Message) {
	i := n.idx()
	if n.net.down[i] {
		return
	}
	if obs := n.net.observers[i]; obs != nil {
		obs(now, from, msg)
	}
	fi := int32(from - 1)
	pos := srcPos
	sp := n.net.top.spans[i]
	if pos < 0 || pos >= sp.len || n.net.top.adj[sp.off+pos] != fi {
		pos = n.net.top.position(i, fi)
	}
	switch msg.Kind {
	case MsgNewBlock:
		if msg.Block != nil {
			n.markPeerKnows(msg.Block.Hash(), from, pos)
			n.maybePullParent(now, from, pos, msg.Block)
		}
		n.handleNewBlock(now, msg.Block)
	case MsgNewBlockHashes:
		n.handleAnnouncement(now, from, pos, msg.Hashes)
	case MsgGetBlock:
		n.handleGetBlock(now, from, pos, msg.Want)
	case MsgTransactions:
		n.handleTxs(now, from, msg.Txs)
	case MsgCompactBlock:
		compact := n.net.laneOf(i).compact
		if msg.Block == nil || compact == nil {
			return
		}
		n.markPeerKnows(msg.Block.Hash(), from, pos)
		n.maybePullParent(now, from, pos, msg.Block)
		compact.OnCompact(n.net.envForMsg(n, now, fi, pos), now, int(from), msg.Block)
	case MsgGetCompact:
		n.handleGetCompact(now, from, pos, msg.Want)
	case MsgGetBlockTxns:
		n.handleGetBlockTxns(now, from, pos, msg)
	case MsgBlockTxns:
		compact := n.net.laneOf(i).compact
		if compact == nil {
			return
		}
		compact.OnBlockTxns(n.net.envForMsg(n, now, fi, pos), now, int(from), msg.Want)
	}
}

// respPos returns the srcPos to stamp on a reply to the sender whose
// validated position in this node's span is pos: the reverse edge
// knows where this node sits in the sender's span.
func (n *Node) respPos(pos int32) int32 {
	if pos < 0 {
		return -1
	}
	return n.net.top.revAdj[n.net.top.spans[n.idx()].off+pos]
}

// InjectBlock makes this node the origin of a freshly mined block
// (mining-pool gateways call this). The origin skips the import delay
// before announcing: the miner already executed its own block. A down
// node swallows the injection — the submitter hit a dead endpoint.
func (n *Node) InjectBlock(now sim.Time, b *types.Block) {
	if n.net.down[n.idx()] {
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
	n.acceptBlock(now, b, true)
	if sharded {
		// acceptBlock interned the new block; size the shared bit
		// grids for it now, while lanes are idle. Growth from phase B
		// would relocate grid storage under concurrent lane reads —
		// conductor-driven runs presize again via AfterGlobal, but
		// direct injections (workloads, tests) get no phase A.
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
	n.handleTxs(now, n.id, []*types.Transaction{tx})
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
func (n *Node) maybePullParent(now sim.Time, from NodeID, pos int32, b *types.Block) {
	if !n.net.ParentPull || b.Header.Number < 2 {
		return
	}
	parent := b.Header.ParentHash
	if idx, ok := n.net.blockIdx.lookup(parent); ok && n.net.haveBits.get(n.idx(), idx) {
		return
	}
	sender := n.net.nodeByID(from)
	if sender == nil || sender.id == n.id {
		return
	}
	m := n.net.newMessage(n.idx(), MsgGetBlock)
	m.Want = parent
	n.net.send(now+announceHandleMillis, n, sender, m, n.respPos(pos))
}

func (n *Node) handleNewBlock(now sim.Time, b *types.Block) {
	n.acceptBlock(now, b, false)
}

// acceptBlock records receipt of a full block body and hands onward
// dissemination to the network's relay protocol. origin marks the
// block miner's own gateway, which pays no import delay before
// announcing. This is the state half of the pre-extraction
// relayBlock; the dissemination half (push wave, announce wave) lives
// in the protocol's OnBlock/OnWave.
func (n *Node) acceptBlock(now sim.Time, b *types.Block, origin bool) {
	if b == nil {
		return
	}
	h := b.Hash()
	i := n.idx()
	idx := n.net.blockIdx.intern(h)
	if n.net.haveBits.get(i, idx) {
		return
	}
	n.rememberBlock(h, b)
	n.net.seenBits.set(i, idx)
	if p := n.net.pending[i]; len(p) > 0 {
		// A body arriving through any path settles an in-flight
		// compact fetch.
		for k := range p {
			if p[k].idx == idx {
				p[k] = p[len(p)-1]
				n.net.pending[i] = p[:len(p)-1]
				break
			}
		}
	}
	if !n.net.relayOn[i] || n.net.top.degree(i) == 0 {
		return
	}
	n.net.laneOf(i).proto.OnBlock(n.net.envFor(n, now), now, b, origin)
}

func (n *Node) handleAnnouncement(now sim.Time, from NodeID, pos int32, hashes []types.Hash) {
	if n.net.nodeByID(from) == nil {
		return
	}
	i := n.idx()
	for _, h := range hashes {
		// The announcer evidently has the block.
		idx := n.net.blockIdx.intern(h)
		n.net.markPeerKnows(i, idx, int32(from-1), pos)
		if !n.net.relayOn[i] || n.net.seenBits.get(i, idx) {
			continue
		}
		n.net.seenBits.set(i, idx)
		// Pull the unknown block from the announcer, in whatever form
		// the relay discipline fetches bodies.
		n.net.laneOf(i).proto.OnAnnouncePull(n.net.envForMsg(n, now, int32(from-1), pos), now, int(from), h)
	}
}

func (n *Node) handleGetBlock(now sim.Time, from NodeID, pos int32, want types.Hash) {
	b, ok := n.cachedBlock(want)
	if !ok {
		return
	}
	requester := n.net.nodeByID(from)
	if requester == nil {
		return
	}
	n.markPeerKnows(want, from, pos)
	m := n.net.newMessage(n.idx(), MsgNewBlock)
	m.Block = b
	n.net.send(now+blockRequestRespondMs, n, requester, m, n.respPos(pos))
}

// handleGetCompact serves a sketch pull (the compact discipline's
// announce-side fetch). Requests for bodies outside the FIFO cache
// window are dropped, like GetBlock.
func (n *Node) handleGetCompact(now sim.Time, from NodeID, pos int32, want types.Hash) {
	b, ok := n.cachedBlock(want)
	if !ok {
		return
	}
	requester := n.net.nodeByID(from)
	if requester == nil {
		return
	}
	n.markPeerKnows(want, from, pos)
	// Pull responses count as sent sketches alongside the push wave's,
	// keeping Counters.SketchesSent equal to the CompactBlock class
	// counter.
	n.net.laneOf(n.idx()).proto.Counters().SketchesSent++
	m := n.net.newMessage(n.idx(), MsgCompactBlock)
	m.Block = b
	n.net.send(now+blockRequestRespondMs, n, requester, m, n.respPos(pos))
}

// handleGetBlockTxns serves the missing-transaction round trip. The
// response echoes the requester-computed count and byte total — the
// simulation models the round trip's timing and bandwidth, while the
// body content travels in the retained sketch's object graph.
func (n *Node) handleGetBlockTxns(now sim.Time, from NodeID, pos int32, req *Message) {
	if _, ok := n.cachedBlock(req.Want); !ok {
		return
	}
	requester := n.net.nodeByID(from)
	if requester == nil {
		return
	}
	n.markPeerKnows(req.Want, from, pos)
	m := n.net.newMessage(n.idx(), MsgBlockTxns)
	m.Want = req.Want
	m.TxCount = req.TxCount
	m.TxBytes = req.TxBytes
	n.net.send(now+blockRequestRespondMs, n, requester, m, n.respPos(pos))
}

func (n *Node) handleTxs(now sim.Time, from NodeID, txs []*types.Transaction) {
	i := n.idx()
	var fresh []*types.Transaction
	for _, tx := range txs {
		if tx == nil {
			continue
		}
		idx := n.net.txIdx.intern(tx.Hash())
		if n.net.txBits.get(i, idx) {
			continue
		}
		n.net.txBits.set(i, idx)
		fresh = append(fresh, tx)
	}
	if len(fresh) == 0 || !n.net.relayOn[i] {
		return
	}
	delay := sim.Time(1 + len(fresh)/100*txValidatePer100Txs)
	s := n.net.top.spans[i]
	fi := int32(from - 1)
	for p := int32(0); p < s.len; p++ {
		e := s.off + p
		if n.net.top.adj[e] == fi {
			continue
		}
		peer := n.net.NodeAt(int(n.net.top.adj[e]))
		// Each peer gets its own pooled message; the fresh batch slice
		// is shared by every copy (released messages drop, never
		// rewrite, it).
		m := n.net.newMessage(n.idx(), MsgTransactions)
		m.Txs = fresh
		n.net.send(now+delay, n, peer, m, n.net.top.revAdj[e])
	}
}
