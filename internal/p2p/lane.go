package p2p

import (
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// transportCounters is the transport accounting one lane writes. The
// Network embeds one as its public totals; the home lane of a
// bare-engine network writes that instance directly, so the totals are
// live, while each region lane writes its own and FoldLanes moves them
// over after the run.
type transportCounters struct {
	// MessagesSent counts transport-level sends, for redundancy and
	// overhead accounting.
	MessagesSent uint64
	// BytesSent accumulates serialized payload bytes.
	BytesSent uint64
	// MessagesDropped counts transport sends and in-flight deliveries
	// discarded by faults: down endpoints, partitions, link loss.
	// Always zero on a healthy network.
	MessagesDropped uint64
	// classMsgs / classBytes break MessagesSent and BytesSent down per
	// message class (indexed by MsgKind) — the per-protocol bandwidth
	// accounting. Their sums equal the totals by construction; the
	// relay conformance suite asserts it.
	classMsgs  [msgKindCount]uint64
	classBytes [msgKindCount]uint64
}

// moveInto adds c to dst and zeroes c. It copies before clearing, so
// moving the home lane's counters — which are dst — is the identity.
func (c *transportCounters) moveInto(dst *transportCounters) {
	v := *c
	*c = transportCounters{}
	dst.MessagesSent += v.MessagesSent
	dst.BytesSent += v.BytesSent
	dst.MessagesDropped += v.MessagesDropped
	for k := range v.classMsgs {
		dst.classMsgs[k] += v.classMsgs[k]
		dst.classBytes[k] += v.classBytes[k]
	}
}

// netLane is the transport: everything a send, a delivery or an
// announce wave touches beyond per-node state lives here — the engine
// it schedules on, the RNG stream it draws from, the relay protocol
// instance, counters, pools and fan-out scratch. It is the only
// sim.Handler in the package. A lane's engine is single-threaded, so
// one set of scratch per lane is safe, and the steady state is
// allocation-free: messages and delivery slots come from free lists,
// deliveries and deferred announce waves are typed engine events (no
// closure per send), and fan-out selection reuses the scratch buffers.
//
// A network runs on one of two lane layouts (Network.lanes): a single
// home lane bound to the network's own engine and RNG stream, or one
// lane per region under a sim.Conductor (shard.go).
type netLane struct {
	net    *Network
	engine *sim.Engine
	rng    *sim.RNG

	// Relay protocol instance. Protocols are stateless beyond their
	// counters, so per-lane instances behave identically while keeping
	// counter writes lane-local.
	proto   relay.Protocol
	compact relay.CompactHandler
	// env is the reusable relay.Env view handed to the protocol.
	env relayEnv

	ctr *transportCounters

	// Pooled transport state (see HandleEvent).
	msgFree   []*Message
	deliv     []delivery
	delivFree []int32
	ann       []announce
	annFree   []int32

	// Fan-out scratch: candidate span positions and permutation order.
	candBuf  []int32
	orderBuf []int

	// cross buffers this lane's sends to other lanes until the next
	// conductor merge, each stamped with the lane-lifetime emission
	// number that becomes its equal-time tie key on the destination
	// engine. Always empty on the one-lane layout.
	cross []crossMsg

	// emitSeq counts this lane's cross-lane sends over the whole run.
	// It never resets at merges: a per-batch index would make equal-time
	// ties between messages merged in different rounds depend on where
	// the window boundaries fell, i.e. on the lookahead bound matrix.
	emitSeq uint64
}

// newLane builds a lane on the given engine, RNG stream and counter
// block; the caller installs its protocol (setProto).
func newLane(net *Network, engine *sim.Engine, rng *sim.RNG, ctr *transportCounters) *netLane {
	ln := &netLane{net: net, engine: engine, rng: rng, ctr: ctr}
	ln.env = relayEnv{net: net, lane: ln, fromIdx: -1, fromPos: -1}
	return ln
}

// setProto installs the lane's relay protocol instance, caching the
// compact-family interface assertion so per-message dispatch pays no
// type switch.
func (ln *netLane) setProto(p relay.Protocol) {
	ln.proto = p
	ln.compact, _ = p.(relay.CompactHandler)
}

// laneOf returns the lane owning node index i.
func (net *Network) laneOf(i int32) *netLane { return net.lanes[net.regions[i]] }

// Sharded reports whether the transport runs on more than one lane.
func (net *Network) Sharded() bool { return len(net.all) > 1 }

// acquireDeliv takes a delivery slot from the lane pool.
func (ln *netLane) acquireDeliv() int32 {
	if n := len(ln.delivFree); n > 0 {
		idx := ln.delivFree[n-1]
		ln.delivFree = ln.delivFree[:n-1]
		return idx
	}
	ln.deliv = append(ln.deliv, delivery{})
	return int32(len(ln.deliv) - 1)
}

// newMessage takes a message from the pool of the lane owning node i
// (the handler running on node i's lane is the only writer of that
// pool; a message may be released into a different lane's pool after a
// cross-lane hop, which is fine — pools are plain free lists). The
// caller fills exactly the payload field its kind requires; every other
// payload field is zero.
func (net *Network) newMessage(i int32, kind MsgKind) *Message {
	ln := net.laneOf(i)
	if n := len(ln.msgFree); n > 0 {
		m := ln.msgFree[n-1]
		ln.msgFree = ln.msgFree[:n-1]
		m.Kind = kind
		return m
	}
	return &Message{Kind: kind}
}

// release recycles a delivered message into the executing lane's pool.
// Payload slices are dropped, not reused: a transaction batch is shared
// by every fan-out copy, so its backing array must never be rewritten.
// The inline single-hash buffer is owned by the message and is safely
// rewritten on reuse.
func (ln *netLane) release(m *Message) {
	m.Block = nil
	m.Hashes = nil
	m.Txs = nil
	m.Want = types.Hash{}
	m.TxCount = 0
	m.TxBytes = 0
	ln.msgFree = append(ln.msgFree, m)
}

// drop counts and recycles an undeliverable message on the executing
// lane.
func (ln *netLane) drop(msg *Message) {
	ln.ctr.MessagesDropped++
	ln.release(msg)
}

// fanoutOrder fills the lane's permutation scratch with a random
// ordering of [0, n), drawing exactly as rng.Perm(n) would from the
// lane's stream.
func (ln *netLane) fanoutOrder(n int) []int {
	if cap(ln.orderBuf) < n {
		ln.orderBuf = make([]int, n)
	}
	out := ln.orderBuf[:n]
	ln.rng.PermInto(out)
	return out
}

// HandleEvent implements sim.Handler: it dispatches the transport's
// two typed event kinds. Slots are freed before the callee runs so
// nested sends can immediately reuse them.
func (ln *netLane) HandleEvent(now sim.Time, op, idx uint64) {
	net := ln.net
	switch op {
	case opDeliver:
		d := ln.deliv[idx]
		ln.deliv[idx] = delivery{}
		ln.delivFree = append(ln.delivFree, int32(idx))
		ti := d.to.idx()
		if net.down[ti] {
			// The destination crashed while the message was in flight;
			// its TCP connections are gone, so the bytes never arrive.
			ln.drop(d.msg)
			return
		}
		net.msgsIn[ti]++
		net.bytesIn[ti] += uint64(d.size)
		d.to.handle(now, d.from, d.srcPos, d.msg)
		ln.release(d.msg)
	case opAnnounce:
		a := ln.ann[idx]
		ln.ann[idx] = announce{}
		ln.annFree = append(ln.annFree, int32(idx))
		if net.down[a.node.idx()] {
			// The wave was scheduled before the node crashed.
			return
		}
		ln.proto.OnWave(net.envFor(a.node, now), now, a.hash, a.origin)
	}
}

// EventName implements sim.EventNamer: it labels the transport's typed
// events in engine traces.
func (ln *netLane) EventName(op uint64) string {
	switch op {
	case opDeliver:
		return "p2p.deliver"
	case opAnnounce:
		return "p2p.announce"
	default:
		return "p2p.unknown"
	}
}
