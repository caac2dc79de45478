package p2p

import "math/bits"

// Per-peer knowledge tracking, flattened.
//
// The old layout kept, per node, a map from recent block hash to a
// map of peer IDs — two hash maps per tracked block per node. The
// flat layout exploits that the window holds at most knownPeerCap
// (= 64) blocks, exactly one uint64 of slots:
//
//   - knowSlot is an N×64 ring of block indices (+1; 0 = empty slot):
//     node i's recent-block window occupies
//     knowSlot[i*knownPeerCap : (i+1)*knownPeerCap], a circular buffer
//     advanced by the node row's knowHead/knowCount.
//   - knowMask (in the adjacency arena, one word per directed edge)
//     holds the per-peer bits: bit s set on edge (i→j) means node i
//     knows that peer j has the block in window slot s.
//   - spill holds the marks that cannot live on an edge: the sender
//     was not connected when the mark landed (announce after a
//     disconnect, a crashed peer's in-flight delivery), or the edge was
//     torn down and its mask bits had to survive — peer knowledge is
//     keyed by node identity, not by connection, and fault campaigns
//     depend on that. Healthy campaigns never touch the spill path.
//
// Evicting a window slot clears its bit across the node's span and
// purges its spill entries, so a slot's state never leaks into the
// block that reuses it.

// spillMark is one off-edge knowledge mark: peer knows the block in
// window slot.
type spillMark struct {
	peer int32
	slot int32
}

// slotUnknown is a passed-along window slot nobody has scanned for yet
// (-1 is a scan's "not in the window").
const slotUnknown int32 = -2

// windowSlot returns the slot of node i's window holding block idx, or
// -1. Scans newest-first: marks overwhelmingly target the block
// currently propagating. A delivery scans at most once: markPeerKnows
// returns the slot and the relayEnv keeps it for the fan-out.
func (net *Network) windowSlot(i, idx int32) int32 {
	row := &net.rows[i]
	want := idx + 1
	if row.newest == want {
		return int32(row.newestSlot)
	}
	base := i * knownPeerCap
	head := int32(row.knowHead)
	count := int32(row.knowCount)
	for k := count - 1; k >= 0; k-- {
		s := (head + k) & (knownPeerCap - 1)
		if net.knowSlot[base+s] == want {
			return s
		}
	}
	return -1
}

// windowAdd inserts block idx into node i's window, evicting the
// oldest tracked block when full (matching the old FIFO knowQueue),
// and returns the slot now holding idx.
func (net *Network) windowAdd(i, idx int32) int32 {
	base := i * knownPeerCap
	row := &net.rows[i]
	if row.knowCount == knownPeerCap {
		evict := int32(row.knowHead)
		net.clearSlot(i, evict)
		net.knowSlot[base+evict] = 0
		row.knowHead = uint8((evict + 1) & (knownPeerCap - 1))
		row.knowCount--
	}
	s := (int32(row.knowHead) + int32(row.knowCount)) & (knownPeerCap - 1)
	net.knowSlot[base+s] = idx + 1
	row.knowCount++
	row.newest, row.newestSlot = idx+1, uint8(s)
	return s
}

// clearSlot erases slot s of node i's window everywhere it is
// recorded: the bit across every edge of i's span, and any spill
// entries.
func (net *Network) clearSlot(i, s int32) {
	sp := net.top.spans[i]
	mask := net.top.knowMask[sp.off : sp.off+sp.len : sp.off+sp.len]
	bit := uint64(1) << uint(s)
	for e := range mask {
		mask[e] &^= bit
	}
	if sl := net.spill[i]; len(sl) > 0 {
		keep := sl[:0]
		for _, m := range sl {
			if m.slot != s {
				keep = append(keep, m)
			}
		}
		net.spill[i] = keep
	}
}

// spillAdd records an off-edge mark, deduplicated.
func (net *Network) spillAdd(i, peer, s int32) {
	for _, m := range net.spill[i] {
		if m.peer == peer && m.slot == s {
			return
		}
	}
	net.spill[i] = append(net.spill[i], spillMark{peer: peer, slot: s})
}

// spillHas reports an off-edge mark for (peer, slot).
func (net *Network) spillHas(i, peer, s int32) bool {
	for _, m := range net.spill[i] {
		if m.peer == peer && m.slot == s {
			return true
		}
	}
	return false
}

// spillEdgeMask preserves a removed edge's suppression bits: every set
// bit becomes a spill entry on the owning node, so tearing down a
// connection (Disconnect, CrashNode) never forgets what the peer was
// known to have.
func (net *Network) spillEdgeMask(i, peer int32, mask uint64) {
	for mask != 0 {
		s := int32(bits.TrailingZeros64(mask))
		mask &= mask - 1
		net.spillAdd(i, peer, s)
	}
}

// markPeerKnows records that peer (at validated span position pos, or
// -1 when not currently connected) has block idx, suppressing future
// sends of it, and returns the block's window slot. The equivalent of
// the old per-node peerKnows[hash][peer] = true.
func (net *Network) markPeerKnows(i, idx, peer, pos int32) int32 {
	s := net.windowSlot(i, idx)
	if s < 0 {
		s = net.windowAdd(i, idx)
	}
	if pos >= 0 {
		net.top.knowMask[net.top.spans[i].off+pos] |= 1 << uint(s)
	} else {
		net.spillAdd(i, peer, s)
	}
	return s
}

// peerKnows reports whether node i knows that peer (at validated span
// position pos, or -1) has block idx.
func (net *Network) peerKnows(i, idx, peer, pos int32) bool {
	s := net.windowSlot(i, idx)
	if s < 0 {
		return false
	}
	if pos >= 0 && net.top.knowMask[net.top.spans[i].off+pos]&(1<<uint(s)) != 0 {
		return true
	}
	if len(net.spill[i]) > 0 {
		return net.spillHas(i, peer, s)
	}
	return false
}
