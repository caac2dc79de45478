package p2p

import (
	"repro/internal/geo"
	"repro/internal/p2p/relay"
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

// Local protocol timing constants. The block-relay timings (validate,
// import, announce handling) are the relay package's; these cover the
// discipline-independent serving and transaction paths.
const (
	txValidateMillis      = 1
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
	net.growBlocks(int(idx) + 1)
	net.haveBits.set(i, idx)
	if net.blockBody[idx] == nil {
		// The canonical body pointer for idx is always the same object
		// (blocks are built once by mining); setting it only on first
		// sight keeps phase-B lanes read-only here — the origin's
		// phase-A injection has already published it.
		net.blockBody[idx] = b
	}
	row := &net.rows[i]
	if n := int32(row.cacheLen); n < blockCacheCap {
		if n == net.cacheStride {
			net.growCacheStride(n + 1)
		}
		net.cacheRing[i*net.cacheStride+n] = idx
		row.cacheLen++
		net.cachedBits.set(i, idx)
		return
	}
	// Full (the stride is blockCacheCap): the new body takes the oldest
	// one's slot.
	slot := &net.cacheRing[i*blockCacheCap+int32(row.cacheHead)]
	evict := *slot
	*slot = idx
	row.cacheHead = uint16((int(row.cacheHead) + 1) % blockCacheCap)
	net.cachedBits.set(i, idx)
	net.cachedBits.clear(i, evict)
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
// bookkeeping stays O(1) even at measurement-node degrees. The block or
// transaction is addressed by f.item: no arm hashes or looks anything
// up, and the one window scan an arm makes (markPeerKnows) is handed on
// to the relay fan-out.
func (ln *netLane) handle(now sim.Time, f *flight) {
	net := ln.net
	i, fi := f.to, f.from
	row := &net.rows[i]
	if row.observer != nil {
		row.observer(now, NodeID(fi+1), ln.viewOf(f))
	}
	if f.kind == MsgTransactions {
		// Transaction gossip keeps no per-peer state: the sender
		// exclusion is by index, so the position check is skipped too.
		net.handleTx(i, now, fi, f.item)
		return
	}
	pos := f.srcPos
	sp := net.top.spans[i]
	if pos < 0 || pos >= sp.len || net.top.adj[sp.off+pos] != fi {
		pos = net.top.position(i, fi)
	}
	switch f.kind {
	case MsgNewBlock:
		b := net.blockBody[f.item]
		if b == nil {
			return
		}
		slot := net.markPeerKnows(i, f.item, fi, pos)
		ln.pullParent(now, f, pos)
		net.acceptBlock(i, now, b, f.item, slot, false)
	case MsgNewBlockHashes:
		// The announcer evidently has the block.
		net.markPeerKnows(i, f.item, fi, pos)
		if !row.relayOn || net.seenBits.get(i, f.item) {
			return
		}
		net.seenBits.set(i, f.item)
		ln.announcePull(i, now, fi, pos, f.item)
	case MsgGetBlock, MsgGetCompact, MsgGetBlockTxns:
		ln.serve(now, f, pos)
	case MsgCompactBlock:
		b := net.blockBody[f.item]
		if b == nil || ln.relay.Mode != relay.Compact {
			return
		}
		slot := net.markPeerKnows(i, f.item, fi, pos)
		ln.pullParent(now, f, pos)
		ln.reconstruct(now, f, pos, slot)
	case MsgBlockTxns:
		if ln.relay.Mode != relay.Compact {
			return
		}
		// The missing transactions complete a pending reconstruction.
		// The retained sketch block carries the full body in the
		// simulation's object graph, so completion is acceptance.
		if b := net.takePending(i, f.item); b != nil && !net.haveBits.get(i, f.item) {
			net.acceptBlock(i, now, b, f.item, slotUnknown, false)
		}
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
// This is where block hashes are interned (phase A on conductor
// lanes; internBlock).
func (n *Node) InjectBlock(now sim.Time, b *types.Block) {
	net := n.net
	if b == nil || net.down[n.idx()] {
		return
	}
	// Force the block's lazily cached derived values while still
	// single-threaded (injection runs in phase A). Peers in different
	// lanes may serve the body concurrently later, and a first-call
	// cache fill from phase B would race.
	precomputeSizes(b)
	idx := net.internBlock(b)
	net.acceptBlock(n.idx(), now, b, idx, slotUnknown, true)
	// Size the shared bit grids for the new indices now, while lanes
	// are idle. Growth from phase B would relocate grid storage under
	// concurrent lane reads — conductor-driven runs presize again via
	// AfterGlobal, but direct injections (workloads, tests) get no
	// phase A.
	net.presizeArenas()
}

// InjectTx makes this node the origin of a new transaction. Like
// InjectBlock, a nil transaction is a no-op and a down node loses the
// submission.
//
// This is the one place a transaction is interned (phase A on
// conductor lanes): its hash, and on first sight the object itself
// into the network's index→transaction table, which lanes only read.
func (n *Node) InjectTx(now sim.Time, tx *types.Transaction) {
	net := n.net
	if tx == nil || net.down[n.idx()] {
		return
	}
	// Same phase-A cache-fill rule as InjectBlock (intern fills the
	// hash).
	_ = tx.EncodedSize()
	idx := net.txIdx.intern(tx.Hash())
	if int(idx) == len(net.txs) {
		net.txs = append(net.txs, tx)
	}
	net.handleTx(n.idx(), now, n.idx(), idx)
	// Same phase-A presize rule as InjectBlock (txBits grew).
	net.presizeArenas()
}

// internBlock interns block b's hash and, past height 1, its parent's —
// the one other hash a flight can name (pullParent), and one no
// injection interned if a down gateway swallowed the parent — and
// records the parent's index beside the body, so a delivery reaches it
// through no map. It runs only while the lanes are idle.
func (net *Network) internBlock(b *types.Block) int32 {
	idx := net.blockIdx.intern(b.Hash())
	parent := int32(-1)
	if b.Header.Number >= 2 {
		parent = net.blockIdx.intern(b.Header.ParentHash)
	}
	net.growBlocks(len(net.blockIdx.hashes))
	net.blockParent[idx] = parent
	return idx
}

// growBlocks extends the per-block tables to n blocks: no body
// published, no parent to fetch.
func (net *Network) growBlocks(n int) {
	for len(net.blockBody) < n {
		net.blockBody = append(net.blockBody, nil)
		net.blockParent = append(net.blockParent, -1)
	}
}

// pullParent is the catch-up fetch: a block delivered in f that the
// receiver does not hold yet, whose parent it has neither received nor
// been announced — a gap left by a partition, a crash or a sqrt-bounded
// wave that skipped the node — triggers a GetBlock for that parent from
// the block's sender, as geth's block fetcher fetches unknown ancestry.
// The response is a NewBlock, so the pull walks the missing ancestry
// recursively until it reaches known ground; the sender serves from its
// FIFO body cache, which comfortably covers any realistic outage
// window. A pull obeys the rule every fetch obeys: the parent is marked
// seen when it is requested, so a node asks for a block once, and a
// pull lost to a fault is recovered the way a lost announce pull is —
// by a later push of the body — not by retrying on every copy of a
// descendant. A copy of a held block asks nothing, so a redundant
// delivery reads only the body bit acceptBlock reads anyway.
func (ln *netLane) pullParent(now sim.Time, f *flight, pos int32) {
	net := ln.net
	if net.haveBits.get(f.to, f.item) {
		return
	}
	parent := net.blockParent[f.item]
	if parent < 0 || net.seenBits.get(f.to, parent) {
		return
	}
	net.seenBits.set(f.to, parent)
	ln.ctr.RelayCounters.ParentPulls++
	net.request(f.to, f.from, pos, now+relay.AnnounceHandleDelay, MsgGetBlock, parent, 0, 0)
}

// acceptBlock records receipt of a full block body (interned as idx)
// and hands onward dissemination to the node's lane (relayBlock).
// origin marks the block miner's own gateway, which pays no import
// delay before announcing; slot is idx's suppression-window slot if
// the caller scanned for it, else slotUnknown.
func (net *Network) acceptBlock(i int32, now sim.Time, b *types.Block, idx, slot int32, origin bool) {
	if net.haveBits.get(i, idx) {
		return
	}
	net.rememberBlock(i, idx, b)
	net.seenBits.set(i, idx)
	// A body arriving through any path settles an in-flight compact
	// fetch.
	net.takePending(i, idx)
	if !net.rows[i].relayOn || net.top.degree(i) == 0 {
		return
	}
	net.laneOf(i).relayBlock(i, now, idx, slot, origin)
}

// serve answers the three pulls — GetBlock with the body, GetCompact
// with a sketch, GetBlockTxns with the missing-transaction response —
// for a block still in the node's FIFO body cache; other requests are
// dropped. The BlockTxns reply echoes the requester-computed count and
// byte total: the simulation models the round trip's timing and
// bandwidth, the content travels in the retained sketch's object graph.
func (ln *netLane) serve(now sim.Time, f *flight, pos int32) {
	net := ln.net
	if !net.cachedBits.get(f.to, f.item) {
		return
	}
	net.markPeerKnows(f.to, f.item, f.from, pos)
	reply := flight{to: f.from, from: f.to, srcPos: net.respPos(f.to, pos), item: f.item}
	switch f.kind {
	case MsgGetBlock:
		reply.kind = MsgNewBlock
	case MsgGetCompact:
		// Pull responses count as sent sketches alongside the push
		// wave's, keeping SketchesSent equal to the CompactBlock class
		// counter.
		ln.ctr.RelayCounters.SketchesSent++
		reply.kind = MsgCompactBlock
	case MsgGetBlockTxns:
		reply.kind, reply.txCount, reply.txBytes = MsgBlockTxns, f.txCount, f.txBytes
	}
	net.send(now+blockRequestRespondMs, &reply)
}

// handleTx admits transaction idx at node i from node `from` (i itself
// for an injection) and, if it is new there, gossips it to i's other
// peers after the validation delay. A message carries exactly one
// transaction — InjectTx is the only origin — so admission is one bit
// and the fan-out one flight re-addressed per peer.
func (net *Network) handleTx(i int32, now sim.Time, from, idx int32) {
	if net.txBits.get(i, idx) {
		return
	}
	net.txBits.set(i, idx)
	if !net.rows[i].relayOn {
		return
	}
	s := net.top.spans[i]
	out := flight{from: i, srcPos: -1, kind: MsgTransactions, item: idx, txBytes: int32(net.txs[idx].EncodedSize())}
	for e := s.off; e < s.off+s.len; e++ {
		if out.to = net.top.adj[e]; out.to != from {
			net.send(now+txValidateMillis, &out)
		}
	}
}
