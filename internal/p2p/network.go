package p2p

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// Network owns the overlay: node registry, random peer wiring, and
// message transport over the geographic latency model.
//
// The node core is flat: every piece of per-node state lives in a
// dense Network-owned slice indexed by NodeID-1 (IDs are assigned
// sequentially and never reused). regions and down are read across
// lanes — send looks up the destination's, whichever lane owns it — so
// they stay separate read-mostly byte arrays. Everything else is
// private to the owning lane while a run is going: the scalars share
// one nodeRow, so a delivery's bookkeeping lands on one line; dedup
// bits, window ring, caches and pending fetches have their own arenas.
// Peer adjacency is a CSR arena (adjacency.go), blocks and transactions
// are interned to compact indices (items.go), and the per-peer
// suppression state is one uint64 per directed edge (know.go). A *Node
// is a thin stable handle into these arrays; at 100k nodes the overlay
// is a handful of large allocations instead of ~a million live maps.
//
// Transport — sends, deliveries and announce waves — runs on lanes
// (lane.go): a network built on a bare engine owns one home lane bound
// to that engine and to its own RNG stream, and EnableSharding swaps in
// one lane per region (shard.go). Both layouts run the same code; only
// the lane table differs. A message in flight is a flight record in a
// lane slab (messages.go); there is no message pool.
type Network struct {
	engine  *sim.Engine
	rng     *sim.RNG
	latency geo.LatencyModel
	nextID  NodeID

	// handles is the stable arena of node handles: fixed-size chunks,
	// so AddNode never relocates an issued *Node.
	handles [][]Node

	// Flat per-node state, indexed by NodeID-1: the two arrays every
	// lane reads, and the rows only the owning lane touches.
	regions []geo.Region
	down    []bool
	rows    []nodeRow

	// top is the CSR adjacency (peer spans + per-edge suppression
	// masks + reverse positions).
	top adjacency

	// Compact item registries: blocks additionally keep the canonical
	// body pointer for GetBlock serving.
	blockIdx  itemIndex
	blockBody []*types.Block
	txIdx     itemIndex

	// Per-(node, item) dedup bits: full bodies received, hashes seen
	// (received or announced), tx-pool visibility, and FIFO body-cache
	// residency.
	haveBits   bitGrid
	seenBits   bitGrid
	txBits     bitGrid
	cachedBits bitGrid

	// cacheQ is each node's FIFO body-cache eviction order (block
	// indices); pending tracks in-flight compact-relay fetches.
	cacheQ  [][]int32
	pending [][]pendingEntry

	// Recent-block suppression windows (know.go): an N×knownPeerCap
	// ring of block indices (cursors in the node row) and the off-edge
	// spill marks.
	knowSlot []int32
	spill    [][]spillMark

	// Transport totals (MessagesSent, BytesSent, MessagesDropped and the
	// per-class breakdown). On the one-lane layout the home lane writes
	// them directly, so they are live; region lanes count privately and
	// FoldLanes moves their counts here once the run has drained.
	transportCounters

	// home is the lane a bare-engine network runs on. It carries the
	// primary relay protocol instance (Relay) whichever layout is
	// active. lanes maps a region to the lane owning its nodes (1-based;
	// slot 0 unused) and all is the dense view for iteration: every
	// slot aliases home until EnableSharding installs the region lanes.
	home  *netLane
	lanes [geo.NumRegions + 1]*netLane
	all   []*netLane

	// Fault, when non-nil, is consulted once per transport send: it can
	// drop the message (partition, link loss) or stretch its delivery
	// delay (degraded links). Healthy campaigns leave it nil, keeping
	// the hot path branch-predictable.
	Fault LinkFilter
	// ParentPull enables the catch-up fetch: a node receiving a block
	// whose parent it has never seen requests that parent from the
	// sender. Real clients recover partition-era blocks through header
	// sync; this is the minimal eth/63-shaped equivalent. Enabled only
	// for fault campaigns so healthy runs stay byte-identical to the
	// pre-fault engine.
	ParentPull bool

	// memberBits is the membership bitmap ConnectSampleBiased uses to
	// filter candidates in O(1) per node.
	memberBits []uint64
}

// handleChunk sizes the node-handle arena chunks.
const handleChunk = 4096

// pendingEntry is one in-flight compact-relay fetch: a retained sketch
// awaiting its missing-transaction round trip, or a nil body for a
// full-body fallback.
type pendingEntry struct {
	idx int32
	b   *types.Block
}

// nodeRow is a node's lane-private scalar state: touched only by the
// lane owning the node, or while every lane is idle.
type nodeRow struct {
	// Messages and serialized bytes received (successful deliveries)
	// and sent (after fault filtering).
	msgsIn, msgsOut, bytesIn, bytesOut uint64
	observer                           Observer
	maxPeers                           int32 // 0 = unlimited
	// knowHead / knowCount are the suppression window's ring cursors;
	// newest is the block (index+1) the window took in last, at
	// newestSlot: the usual scan, for the block propagating now, ends here.
	newest                          int32
	knowHead, knowCount, newestSlot uint8
	relayOn                         bool
}

// announce is one deferred announce wave (relayBlock's phase 2).
type announce struct {
	node   int32
	block  int32
	origin bool
}

// Typed event opcodes for HandleEvent.
const (
	opDeliver uint64 = iota
	opAnnounce
)

// Relay returns the active block-relay protocol.
func (net *Network) Relay() relay.Protocol { return net.home.proto }

// SetRelay installs a block-relay protocol (construct one fresh per
// network with relay.New — protocol counters are per-campaign state).
// Call it before EnableSharding, which builds the region lanes' own
// instances.
func (net *Network) SetRelay(p relay.Protocol) { net.home.setProto(p) }

// ClassTotal is one message class's transport accounting.
type ClassTotal struct {
	Kind     MsgKind
	Messages uint64
	Bytes    uint64
}

// ClassTotals returns the per-message-class transport accounting, in
// MsgKind order, omitting classes that never appeared. The sums over
// the returned rows equal MessagesSent and BytesSent. Like those, it
// covers region lanes only after FoldLanes.
func (net *Network) ClassTotals() []ClassTotal {
	var out []ClassTotal
	for k := MsgKind(1); k < msgKindCount; k++ {
		if net.classMsgs[k] == 0 && net.classBytes[k] == 0 {
			continue
		}
		out = append(out, ClassTotal{Kind: k, Messages: net.classMsgs[k], Bytes: net.classBytes[k]})
	}
	return out
}

// LinkFilter is the fault-injection hook into the transport: it is
// consulted once per send, after both endpoints are known to be up. A
// non-nil error drops the message (counted in MessagesDropped); extra
// is added to the latency-model delay otherwise. Implementations must
// be deterministic given the simulation state (draw any randomness
// from their own seeded stream).
type LinkFilter interface {
	FilterLink(now sim.Time, from, to *Node) (extra sim.Time, err error)
}

// Network construction errors.
var (
	ErrUnknownNode = errors.New("p2p: unknown node")
	ErrSelfDial    = errors.New("p2p: node cannot dial itself")
)

// NewNetwork creates an empty overlay bound to a simulation engine,
// running the default sqrt-push relay discipline.
func NewNetwork(engine *sim.Engine, rng *sim.RNG, latency geo.LatencyModel) *Network {
	net := &Network{
		engine:  engine,
		rng:     rng,
		latency: latency,
	}
	net.home = newLane(net, engine, rng, &net.transportCounters)
	net.all = []*netLane{net.home}
	for r := range net.lanes {
		net.lanes[r] = net.home
	}
	net.SetRelay(relay.MustNew(relay.Config{}))
	return net
}

// AddNode registers a node in a region. maxPeers bounds how many
// connections the node accepts (0 = unlimited, the paper's
// measurement-node setting).
func (net *Network) AddNode(region geo.Region, maxPeers int) (*Node, error) {
	if !region.Valid() {
		return nil, fmt.Errorf("p2p: invalid region %v", region)
	}
	net.nextID++
	if len(net.handles) == 0 || len(net.handles[len(net.handles)-1]) == handleChunk {
		net.handles = append(net.handles, make([]Node, 0, handleChunk))
	}
	c := len(net.handles) - 1
	net.handles[c] = append(net.handles[c], Node{id: net.nextID, net: net})
	n := &net.handles[c][len(net.handles[c])-1]

	net.regions = append(net.regions, region)
	net.down = append(net.down, false)
	net.rows = append(net.rows, nodeRow{maxPeers: int32(maxPeers), relayOn: true})
	net.top.addNode()
	net.cacheQ = append(net.cacheQ, nil)
	net.pending = append(net.pending, nil)
	net.knowSlot = append(net.knowSlot, make([]int32, knownPeerCap)...)
	net.spill = append(net.spill, nil)
	return n, nil
}

// nodeByID resolves an ID to its stable handle, nil when unknown.
func (net *Network) nodeByID(id NodeID) *Node {
	if id < 1 || id > net.nextID {
		return nil
	}
	i := int(id - 1)
	return &net.handles[i/handleChunk][i%handleChunk]
}

// Node returns a node by ID.
func (net *Network) Node(id NodeID) (*Node, error) {
	n := net.nodeByID(id)
	if n == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return n, nil
}

// Nodes returns all nodes in insertion order.
func (net *Network) Nodes() []*Node {
	out := make([]*Node, 0, net.nextID)
	for id := NodeID(1); id <= net.nextID; id++ {
		out = append(out, net.nodeByID(id))
	}
	return out
}

// Len returns the number of nodes ever added (crashed and departed
// nodes included — slots are never reused).
func (net *Network) Len() int { return int(net.nextID) }

// NodeAt returns the i-th node in insertion order. Fault injection
// uses it for index-addressed sampling without materializing the full
// node slice per draw.
func (net *Network) NodeAt(i int) *Node {
	return &net.handles[i/handleChunk][i%handleChunk]
}

// Engine exposes the simulation engine driving this network.
func (net *Network) Engine() *sim.Engine { return net.engine }

// atPeerLimit reports whether node i accepts no further connection.
func (net *Network) atPeerLimit(i int32) bool {
	limit := net.rows[i].maxPeers
	return limit > 0 && net.top.degree(i) >= int(limit)
}

// Connect wires two nodes bidirectionally. Connecting an already
// connected pair is a no-op. It fails when either node is at its peer
// limit or on self-dial.
func (net *Network) Connect(a, b *Node) error {
	if a == nil || b == nil {
		return ErrUnknownNode
	}
	if a.id == b.id {
		return ErrSelfDial
	}
	i, j := a.idx(), b.idx()
	if net.top.connected(i, j) {
		return nil
	}
	if net.atPeerLimit(i) {
		return fmt.Errorf("p2p: node %d at peer limit %d", a.id, net.rows[i].maxPeers)
	}
	if net.atPeerLimit(j) {
		return fmt.Errorf("p2p: node %d at peer limit %d", b.id, net.rows[j].maxPeers)
	}
	net.top.link(i, j)
	return nil
}

// WireRandom builds a random overlay where every node dials
// degree distinct random peers (the union graph has mean degree
// ~2*degree). Peer-limit-saturated candidates are skipped, mirroring
// real discovery behavior. The wiring is deterministic for a given
// RNG state.
func (net *Network) WireRandom(degree int) error {
	if degree < 1 {
		return fmt.Errorf("p2p: degree %d < 1", degree)
	}
	n := net.Len()
	if n < 2 {
		return nil
	}
	for id := NodeID(1); id <= net.nextID; id++ {
		node := net.nodeByID(id)
		i := node.idx()
		attempts := 0
		dialed := 0
		for dialed < degree && attempts < 20*degree {
			attempts++
			target := net.NodeAt(net.rng.IntN(n))
			j := target.idx()
			if j == i || net.top.connected(i, j) {
				continue
			}
			if net.atPeerLimit(i) {
				break
			}
			if net.atPeerLimit(j) {
				continue
			}
			if err := net.Connect(node, target); err != nil {
				continue
			}
			dialed++
		}
	}
	return nil
}

// ConnectSample connects node to up to k distinct random peers (used
// to attach measurement nodes with a chosen peer count).
func (net *Network) ConnectSample(node *Node, k int) error {
	return net.ConnectSampleBiased(node, k, 0)
}

// ConnectSampleBiased connects node to up to k distinct peers, with
// fraction regionBias of candidates drawn from the node's own region
// and the remainder uniform. Mining-pool gateways peer preferentially
// with nearby infrastructure (latency-driven peer curation), which
// regular protocol nodes — selected by random ID — do not.
func (net *Network) ConnectSampleBiased(node *Node, k int, regionBias float64) error {
	if node == nil {
		return ErrUnknownNode
	}
	i := node.idx()
	// Mark the node's current peers in the shared membership bitmap so
	// the candidate sweep below is O(1) per node even when attaching a
	// huge-degree gateway or measurement node.
	words := (net.Len() + 63) / 64
	if cap(net.memberBits) < words {
		net.memberBits = make([]uint64, words)
	}
	member := net.memberBits[:words]
	s := net.top.spans[i]
	for p := int32(0); p < s.len; p++ {
		j := net.top.adj[s.off+p]
		member[j>>6] |= 1 << (uint(j) & 63)
	}
	var local, global []NodeID
	for id := NodeID(1); id <= net.nextID; id++ {
		j := int32(id - 1)
		if j == i || member[j>>6]&(1<<(uint(j)&63)) != 0 {
			continue
		}
		if regionBias > 0 && net.regions[j] == net.regions[i] {
			local = append(local, id)
		} else {
			global = append(global, id)
		}
	}
	for p := int32(0); p < s.len; p++ {
		j := net.top.adj[s.off+p]
		member[j>>6] &^= 1 << (uint(j) & 63)
	}
	sim.Shuffle(net.rng, local)
	sim.Shuffle(net.rng, global)
	connected := 0
	wantLocal := int(regionBias * float64(k))
	dial := func(pool []NodeID, want int) []NodeID {
		for len(pool) > 0 && connected < want {
			id := pool[0]
			pool = pool[1:]
			if err := net.Connect(node, net.nodeByID(id)); err != nil {
				continue
			}
			connected++
		}
		return pool
	}
	local = dial(local, wantLocal)
	global = dial(global, k)
	// Top up from whichever pool still has candidates.
	dial(local, k)
	if connected < k && connected < len(local)+len(global)+connected {
		// Some candidates refused (peer limits); only report failure
		// when nothing more could possibly be dialed.
		if connected == 0 && k > 0 && net.Len() > 1 {
			return fmt.Errorf("p2p: connected 0 of %d requested peers", k)
		}
	}
	return nil
}

// Connected reports whether two nodes currently hold a connection.
func (net *Network) Connected(a, b *Node) bool {
	return a != nil && b != nil && net.top.connected(a.idx(), b.idx())
}

// Disconnect tears down the connection between two nodes (a no-op for
// unconnected pairs). Peer-list order of the survivors is preserved,
// so disconnects are deterministic; the edge's suppression bits are
// spilled, because peer knowledge is keyed by node identity, not by
// connection.
func (net *Network) Disconnect(a, b *Node) {
	if a == nil || b == nil {
		return
	}
	i, j := a.idx(), b.idx()
	maskI, maskJ, ok := net.top.unlink(i, j)
	if !ok {
		return
	}
	net.spillEdgeMask(i, j, maskI)
	net.spillEdgeMask(j, i, maskJ)
}

// CrashNode takes a node down: every connection is torn down (its
// peers see the TCP sessions die) and in-flight messages to it are
// discarded on arrival. The node's durable state — received blocks,
// seen hashes, peer knowledge — persists, like a real client's disk
// across a process crash. A down node schedules no events, so outages
// cost nothing on the event queue.
func (net *Network) CrashNode(n *Node) {
	if n == nil {
		return
	}
	i := n.idx()
	if net.down[i] {
		return
	}
	net.down[i] = true
	s := net.top.spans[i]
	for p := int32(0); p < s.len; p++ {
		e := s.off + p
		j := net.top.adj[e]
		// Remove n from the peer's span, preserving both directions'
		// suppression bits.
		maskJ := net.top.removeAt(j, net.top.revAdj[e])
		net.spillEdgeMask(j, i, maskJ)
		net.spillEdgeMask(i, j, net.top.knowMask[e])
	}
	net.top.spans[i].len = 0
}

// RecoverNode brings a crashed node back up with an empty peer table;
// the caller rewires it (fault injection redials through discovery).
func (net *Network) RecoverNode(n *Node) {
	if n == nil {
		return
	}
	net.down[n.idx()] = false
}

// send schedules delivery of flight f (everything but size set by the
// caller) at the latency-model sampled arrival time relative to `at`.
// The delivery is a typed engine event naming a slab slot — no
// closure. f.srcPos is the sender's position in the destination's peer
// span when the caller knows it (reverse-edge lookup), -1 otherwise;
// the receiver re-validates it. Sends touching a down endpoint, or
// vetoed by the fault filter, are dropped (counted in MessagesDropped).
// It runs on the sender's lane and reads only the destination's region
// and down flag.
func (net *Network) send(at sim.Time, f *flight) {
	fi, ti := f.from, f.to
	rf, rt := net.regions[fi], net.regions[ti]
	ln := net.lanes[rf] // executing lane
	if net.down[fi] || net.down[ti] {
		ln.ctr.MessagesDropped++
		return
	}
	var extra sim.Time
	if net.Fault != nil {
		var err error
		extra, err = net.Fault.FilterLink(at, net.NodeAt(int(fi)), net.NodeAt(int(ti)))
		if err != nil {
			ln.ctr.MessagesDropped++
			return
		}
	}
	size := wireSize(f.kind, f.b, 1, f.txs, int(f.txCount), int(f.txBytes))
	delay, err := net.latency.Sample(ln.rng, rf, rt, size)
	if err != nil {
		// Regions are validated at AddNode; a failure here is a
		// programming error. The old zero-delay fallback was a time
		// bomb: on region lanes a zero-delay cross-lane message can
		// arrive at or before the destination lane's clock, silently
		// violating the lookahead invariant mergeCross asserts. Clamp
		// to the pair floor instead; if even that fails the regions
		// really are invalid and continuing would corrupt the run.
		if delay, err = net.latency.MinPairDelay(rf, rt); err != nil {
			panic(fmt.Sprintf("p2p: latency sample %v->%v: %v", rf, rt, err))
		}
		if delay < 1 {
			delay = 1
		}
	}
	f.size = int32(size)
	ln.ctr.MessagesSent++
	ln.ctr.BytesSent += uint64(size)
	ln.ctr.classMsgs[f.kind]++
	ln.ctr.classBytes[f.kind] += uint64(size)
	row := &net.rows[fi]
	row.msgsOut++
	row.bytesOut += uint64(size)
	if net.lanes[rt] == ln {
		ln.engine.ScheduleCallAt(at+delay+extra, ln, opDeliver, uint64(ln.putFlight(f)))
		return
	}
	// Cross-lane: never touch the destination lane from here — buffer
	// for the next conductor merge. Arrival is always strictly in the
	// destination's future: delay >= LatencyModel.MinPairDelay(from,
	// to), the per-pair floor backing the conductor's SetBounds
	// lookahead matrix (faults only add delay or drop, never
	// accelerate), so merging never back-dates an event — mergeCross
	// asserts exactly this.
	ln.cross = append(ln.cross, crossMsg{at: at + delay + extra, seq: ln.emitSeq, f: *f})
	ln.emitSeq++
}

// scheduleAnnounce queues node i's deferred announce wave for a block
// (relay phase 2) through the typed dispatch path, at an absolute
// virtual time. Announce waves always run on the node's own lane;
// absolute scheduling keeps them correct when the lane clock trails the
// emitting event's time (phase A injections on region lanes).
func (net *Network) scheduleAnnounce(at sim.Time, i, block int32, origin bool) {
	ln := net.laneOf(i)
	var idx int32
	if k := len(ln.annFree); k > 0 {
		idx = ln.annFree[k-1]
		ln.annFree = ln.annFree[:k-1]
	} else {
		ln.ann = append(ln.ann, announce{})
		idx = int32(len(ln.ann) - 1)
	}
	ln.ann[idx] = announce{node: i, block: block, origin: origin}
	ln.engine.ScheduleCallAt(at, ln, opAnnounce, uint64(idx))
}
