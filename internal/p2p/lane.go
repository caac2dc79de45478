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

	// flights holds the messages in flight to this lane's nodes, ann
	// the deferred announce waves of its nodes: a slot is taken when the
	// event is scheduled and freed when it fires, so a slab's size is
	// the lane's peak number in flight.
	flights slab[flight]
	ann     slab[announce]

	// Fan-out scratch: candidate span positions and the spilled peers
	// known to have the block being relayed.
	candBuf  []int32
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

// slabShift sizes a slab chunk: 1,024 records.
const slabShift = 10

// slab holds a lane's records of one type in fixed chunks of 1,024, so
// a record never moves and growth never copies one: the chunk table is
// a pointer per 1,024 records, one load from a line that stays in L1.
// Free slots form one LIFO stack, so a put takes the slot freed last;
// a new chunk's slots go under it lowest on top, so a put with nothing
// freed takes the next unused slot — the slot numbering of a slice
// that appends when its free list is empty.
type slab[T any] struct {
	chunks []*[1 << slabShift]T
	free   []int32 // free slots, the next to take on top
	n      int32   // slots ever taken
}

// put copies *v into a free slot and returns its number.
func (s *slab[T]) put(v *T) int32 {
	k := len(s.free) - 1
	if k < 0 {
		s.grow()
		k = len(s.free) - 1
	}
	idx := s.free[k]
	s.free = s.free[:k]
	s.n = max(s.n, idx+1)
	s.chunks[idx>>slabShift][idx&(1<<slabShift-1)] = *v
	return idx
}

// grow adds a chunk and stacks its slots, lowest on top. The free
// stack keeps room for every slot, doubling when it must move, so
// take's append never reallocates: it never holds more than every slot.
func (s *slab[T]) grow() {
	base := int32(len(s.chunks)) << slabShift
	s.chunks = append(s.chunks, new([1 << slabShift]T))
	s.free = roomFor(s.free, int(base)+1<<slabShift)
	for k := int32(1<<slabShift) - 1; k >= 0; k-- {
		s.free = append(s.free, base+k)
	}
}

// take frees slot idx, leaving it zero, and returns what it held.
func (s *slab[T]) take(idx int32) T {
	r := &s.chunks[idx>>slabShift][idx&(1<<slabShift-1)]
	v := *r
	var zero T
	*r = zero
	s.free = append(s.free, idx)
	return v
}

// HandleEvent implements sim.Handler: it dispatches the transport's
// two typed event kinds. Slots are freed before the callee runs so
// nested sends can immediately reuse them.
func (ln *netLane) HandleEvent(now sim.Time, op, idx uint64) {
	net := ln.net
	switch op {
	case opDeliver:
		f := ln.flights.take(int32(idx))
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
		a := ln.ann.take(int32(idx))
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
