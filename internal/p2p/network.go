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
// Transport — sends, deliveries and announce waves — runs on one lane
// per region (lane.go). The lanes share the engine the network is built
// on, with cross-lane deliveries in its ordered tie band, until
// EnableSharding moves each onto its own conductor lane (shard.go); the
// schedule, and so every artifact, is the same either way. A message in
// flight is a flight record in a lane slab (messages.go); there is no
// message pool.
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
	// body pointer for GetBlock serving and their parent's index for
	// the catch-up fetch (-1: none to fetch), transactions the injected
	// object (txs[i] is the transaction interned as i), appended only by
	// InjectTx.
	blockIdx    itemIndex
	blockBody   []*types.Block
	blockParent []int32
	txIdx       itemIndex
	txs         []*types.Transaction

	// Per-(node, item) dedup bits: full bodies received, hashes seen
	// (received or announced), tx-pool visibility, and FIFO body-cache
	// residency.
	haveBits   bitGrid
	seenBits   bitGrid
	txBits     bitGrid
	cachedBits bitGrid

	// cacheRing is every node's FIFO body-cache eviction order (block
	// indices), one row of cacheStride slots per node: a row fills from
	// slot 0 and, holding blockCacheCap bodies, wraps at the node row's
	// cacheHead. The stride is min(blocks, blockCacheCap) for the blocks
	// reserved or interned (growCacheStride). pending tracks in-flight
	// compact-relay fetches.
	cacheRing   []int32
	cacheStride int32
	pending     [][]pendingEntry

	// Recent-block suppression windows (know.go): an N×knownPeerCap
	// ring of block indices (cursors in the node row) and the off-edge
	// spill marks.
	knowSlot []int32
	spill    [][]spillMark

	// Transport totals (MessagesSent, BytesSent, MessagesDropped, the
	// per-class breakdown and RelayCounters). Lanes sharing one engine
	// write them directly, so they are live; conductor lanes count
	// privately and FoldLanes moves their counts here once the run has
	// drained.
	transportCounters

	// lanes maps a region to the lane owning its nodes (1-based; slot 0
	// unused) and all is the dense view for iteration, in region order.
	lanes [geo.NumRegions + 1]*netLane
	all   []*netLane

	// cond and mergeInto are the conductor and the merge's
	// per-destination job (shard.go); nil while the lanes share one
	// engine.
	cond      *sim.Conductor
	mergeInto func(int)

	// Fault, when non-nil, is consulted once per transport send: it can
	// drop the message (partition, link loss) or stretch its delivery
	// delay (degraded links). Healthy campaigns leave it nil, keeping
	// the hot path branch-predictable.
	Fault LinkFilter

	// memberBits is the membership bitmap ConnectSampleBiased uses to
	// filter candidates in O(1) per node; sampleLocal and sampleGlobal
	// are its candidate pools, reused from call to call.
	memberBits                []uint64
	sampleLocal, sampleGlobal []NodeID
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
	// cacheLen counts the node's cached bodies; cacheHead is the oldest
	// slot of its row of cacheRing once the row is full.
	cacheLen, cacheHead uint16
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

// SetRelay switches every lane to block-relay discipline d. It may
// switch between runs; the relay counters (RelayCounters) are the
// network's and carry on across a switch.
func (net *Network) SetRelay(d relay.Discipline) {
	for _, ln := range net.all {
		ln.relay = d
	}
}

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

// NewNetwork creates an empty overlay whose region lanes all schedule
// on engine, running the default sqrt-push relay discipline. Each lane
// forks its own stream from rng here, in region order, before any
// wiring draw; what is left of rng is the build stream.
func NewNetwork(engine *sim.Engine, rng *sim.RNG, latency geo.LatencyModel) *Network {
	net := &Network{
		engine:  engine,
		rng:     rng,
		latency: latency,
	}
	d := relay.MustNew(relay.Config{})
	for r := geo.Region(1); r <= geo.NumRegions; r++ {
		ln := &netLane{net: net, engine: engine, rng: rng.Fork("lane-" + r.String()), ctr: &net.transportCounters, relay: d, pos: len(net.all)}
		net.lanes[r] = ln
		net.all = append(net.all, ln)
	}
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

	if len(net.rows) == cap(net.rows) {
		// Past the reservation: double every per-node array at once.
		net.Reserve(max(2*len(net.rows), minGrow), 0, 0)
	}
	net.regions = append(net.regions, region)
	net.down = append(net.down, false)
	net.rows = append(net.rows, nodeRow{maxPeers: int32(maxPeers), relayOn: true})
	net.top.addNode()
	net.cacheRing = append(net.cacheRing, make([]int32, net.cacheStride)...)
	net.pending = append(net.pending, nil)
	net.knowSlot = append(net.knowSlot, make([]int32, knownPeerCap)...)
	net.spill = append(net.spill, nil)
	return n, nil
}

// Reserve lays the overlay out for nodes nodes holding cells live
// adjacency cells (two per connection) and blocks blocks, so a build
// that stays within those counts allocates every per-node array, the
// bit grids' rows, the body-cache rings and the adjacency arena once,
// and a run that interns no more blocks never re-lays the rings out.
// core.NewCampaign calls it with the counts its configuration fixes.
// Reserve only adds capacity: it never changes a length, and no offset,
// slot number or compaction decision reads a capacity, so a
// reservation of any size runs the same simulation. A network that
// outgrows its reservation (churn joins, fault rewiring) doubles the
// full array instead.
func (net *Network) Reserve(nodes, cells, blocks int) {
	if nodes > cap(net.rows) {
		net.regions = grownTo(net.regions, nodes)
		net.down = grownTo(net.down, nodes)
		net.rows = grownTo(net.rows, nodes)
		net.cacheRing = grownTo(net.cacheRing, nodes*int(net.cacheStride))
		net.pending = grownTo(net.pending, nodes)
		net.knowSlot = grownTo(net.knowSlot, nodes*knownPeerCap)
		net.spill = grownTo(net.spill, nodes)
		net.top.spans = grownTo(net.top.spans, nodes)
		net.sampleLocal = grownTo(net.sampleLocal, nodes)
		net.sampleGlobal = grownTo(net.sampleGlobal, nodes)
		for _, g := range []*bitGrid{&net.haveBits, &net.seenBits, &net.txBits, &net.cachedBits} {
			g.reserveRows(int32(nodes))
		}
	}
	net.top.reserve(arenaCells(cells))
	if s := int32(min(blocks, blockCacheCap)); s > net.cacheStride {
		net.growCacheStride(s)
	}
}

// growCacheStride re-lays the body-cache rings out at a stride of at
// least need slots, doubling past a reservation, never past
// blockCacheCap. A row wraps only at that cap, so below it every row
// is a prefix to copy. It runs only while every lane is idle: from
// Reserve, from presizeArenas, and from rememberBlock on a network
// that interned no block through InjectBlock (unit tests).
func (net *Network) growCacheStride(need int32) {
	old := net.cacheStride
	ns := min(max(2*old, need, minGrow), blockCacheCap)
	rows := int32(len(net.rows))
	ring := make([]int32, int(rows)*int(ns), cap(net.rows)*int(ns))
	for r := int32(0); r < rows; r++ {
		copy(ring[r*ns:], net.cacheRing[r*old:(r+1)*old])
	}
	net.cacheRing, net.cacheStride = ring, ns
}

// minGrow is the smallest capacity an array growing past its
// reservation (or without one) takes.
const minGrow = 8

// grownTo returns s with capacity for at least n elements, moving it to
// a new backing array only when it must. It is the overlay's one growth
// rule: Reserve calls it with the counts a campaign fixes, and an array
// full past its reservation with twice its capacity, so growth leaves
// at most the array's final size behind as garbage, where append's
// ~1.25× steps on large arrays leave about four times it.
func grownTo[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	t := make([]T, len(s), n)
	copy(t, s)
	return t
}

// roomFor returns s with capacity for at least n elements by the same
// rule: when s must move, it takes twice its capacity or n, whichever
// is more.
func roomFor[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	return grownTo(s, max(n, 2*cap(s)))
}

// push appends v to s by the same rule: doubling when s is full.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = grownTo(s, max(2*cap(s), minGrow))
	}
	return append(s, v)
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

// Engine exposes the engine the network was built on, which its lanes
// schedule on until EnableSharding.
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
	local, global := net.sampleLocal[:0], net.sampleGlobal[:0]
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
	net.sampleLocal, net.sampleGlobal = local[:0], global[:0]
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
// the caller rewires it (fault injection redials sampled live peers).
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
	size := wireSize(f.kind, net.bodyOf(f), 1, int(f.txCount), int(f.txBytes))
	delay, err := net.latency.Sample(ln.rng, rf, rt, size)
	if err != nil {
		// Regions are validated at AddNode; a failure here is a
		// programming error. The old zero-delay fallback was a time
		// bomb: a zero-delay cross-lane message can arrive at or before
		// the destination lane's clock, silently violating the
		// lookahead invariant mergeCross asserts. Clamp to the pair
		// floor instead; if even that fails the regions really are
		// invalid and continuing would corrupt the run.
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
	at += delay + extra
	dl := net.lanes[rt]
	if dl == ln {
		ln.engine.ScheduleCallAt(at, ln, opDeliver, uint64(ln.flights.put(f)))
		return
	}
	// Cross-lane: the delivery's equal-time tie key is (source lane,
	// lifetime emission number). On a shared engine it goes straight
	// into the ordered tie band. On a conductor, never touch the
	// destination lane from here — buffer for the next merge. Arrival
	// is always strictly in the destination's future: delay >=
	// LatencyModel.MinPairDelay(from, to), the per-pair floor backing
	// the conductor's SetBounds lookahead matrix (faults only add delay
	// or drop, never accelerate), so merging never back-dates an event
	// — mergeCross asserts exactly this.
	if dl.engine == ln.engine {
		dl.engine.ScheduleCallAtOrdered(at, dl, opDeliver, uint64(dl.flights.put(f)), uint64(ln.pos)<<48|ln.emitSeq)
	} else {
		ln.cross[dl.pos] = append(ln.cross[dl.pos], crossMsg{at: at, seq: ln.emitSeq, f: *f})
	}
	ln.emitSeq++
}

// scheduleAnnounce queues node i's deferred announce wave for a block
// (relay phase 2) through the typed dispatch path, at an absolute
// virtual time. Announce waves always run on the node's own lane;
// absolute scheduling keeps them correct when the lane clock trails the
// emitting event's time (phase A injections on conductor lanes).
func (net *Network) scheduleAnnounce(at sim.Time, i, block int32, origin bool) {
	ln := net.laneOf(i)
	a := announce{node: i, block: block, origin: origin}
	ln.engine.ScheduleCallAt(at, ln, opAnnounce, uint64(ln.ann.put(&a)))
}
