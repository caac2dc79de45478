package p2p

import (
	"repro/internal/p2p/relay"
	"repro/internal/sim"
)

// transportCounters is the transport accounting one lane writes. The
// Network embeds one as its public totals. Lanes sharing one engine
// all write that instance directly, so the totals are live; a lane
// bound to a conductor writes its own, and FoldLanes moves them over
// after the run.
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
	// RelayCounters is the relay discipline's sketch accounting.
	RelayCounters relay.Counters
}

// moveInto adds c to dst and zeroes c. It copies before clearing, so
// moving a lane's counters that are dst — a one-engine network's — is
// the identity.
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
	dst.RelayCounters.Add(v.RelayCounters)
}

// netLane is the transport: everything a send, a delivery or an
// announce wave touches beyond per-node state lives here — the engine
// it schedules on, the RNG stream it draws from, the relay discipline
// it runs (relay.go), counters, slabs and fan-out scratch. It is the
// only sim.Handler in the package. A lane's engine is single-threaded,
// so one set of scratch per lane is safe, and the steady state is
// allocation-free: a message in flight is one slab record (flight),
// deliveries and deferred announce waves are typed engine events
// carrying a slot number (no closure per send), and fan-out selection
// reuses the scratch buffers. Nothing is pooled beyond the slabs.
//
// A network runs one lane per region (Network.lanes). The lanes share
// the network's engine, or each runs on its own region lane of a
// sim.Conductor (shard.go); either way every lane draws from its own
// RNG stream.
type netLane struct {
	net    *Network
	engine *sim.Engine
	rng    *sim.RNG

	// relay is the block-relay discipline the lane's nodes run
	// (Network.SetRelay sets every lane's).
	relay relay.Discipline
	// view is the reusable Message shown to observers (viewOf).
	view Message

	ctr *transportCounters

	// flights is the slab of messages in flight to this lane's nodes: a
	// slot is taken when the delivery is scheduled and freed when it
	// fires, so the slab's length is the peak number in flight. Free
	// slots form a list through their `to` field, by slot number + 1
	// (0 ends it); freeFlight is its head.
	flights    []flight
	freeFlight int32
	ann        []announce
	annFree    []int32

	// Fan-out scratch: candidate span positions, permutation order and
	// the spilled peers known to have the block being relayed.
	candBuf  []int32
	orderBuf []int
	spillBuf []int32

	// pos is the lane's index in Network.all.
	pos int

	// cross buffers this lane's sends to other lanes until the next
	// conductor merge, one outbox per destination lane (by pos), each
	// send stamped with the lane-lifetime emission number that becomes
	// its equal-time tie key on the destination engine. Nil while the
	// lanes share one engine: a cross-lane send then takes that key
	// straight into the engine's ordered tie band.
	cross [][]crossMsg
	// merged is what the last merge moved into this lane.
	merged int

	// emitSeq counts this lane's cross-lane sends over the whole run.
	// It never resets at merges: a per-batch index would make equal-time
	// ties between messages merged in different rounds depend on where
	// the window boundaries fell, i.e. on the lookahead bound matrix.
	emitSeq uint64
}

// laneOf returns the lane owning node index i.
func (net *Network) laneOf(i int32) *netLane { return net.lanes[net.regions[i]] }

// putFlight copies f into a free slab slot and returns its number.
func (ln *netLane) putFlight(f *flight) int32 {
	idx := ln.freeFlight - 1
	if idx < 0 {
		ln.flights = push(ln.flights, *f)
		return int32(len(ln.flights) - 1)
	}
	ln.freeFlight = ln.flights[idx].to
	ln.flights[idx] = *f
	return idx
}

// takeFlight frees slot idx (no payload pointer stays) and returns
// what it held.
func (ln *netLane) takeFlight(idx int32) flight {
	f := ln.flights[idx]
	ln.flights[idx] = flight{to: ln.freeFlight}
	ln.freeFlight = idx + 1
	return f
}

// HandleEvent implements sim.Handler: it dispatches the transport's
// two typed event kinds. Slots are freed before the callee runs so
// nested sends can immediately reuse them.
func (ln *netLane) HandleEvent(now sim.Time, op, idx uint64) {
	net := ln.net
	switch op {
	case opDeliver:
		f := ln.takeFlight(int32(idx))
		if net.down[f.to] {
			// The destination crashed while the message was in flight;
			// its TCP connections are gone, so the bytes never arrive.
			ln.ctr.MessagesDropped++
			return
		}
		row := &net.rows[f.to]
		row.msgsIn++
		row.bytesIn += uint64(f.size)
		ln.handle(now, &f)
	case opAnnounce:
		a := ln.ann[idx]
		ln.annFree = append(ln.annFree, int32(idx))
		if net.down[a.node] {
			// The wave was scheduled before the node crashed.
			return
		}
		ln.announceWave(a.node, now, a.block, a.origin)
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
