package p2p

import (
	"math"
	"slices"

	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// The block-relay disciplines (relay.Mode) as transport code. All five
// share one two-phase shape — a push wave when a node accepts a block,
// after cheap validation, and a deferred announce wave after full
// import — and differ only in how many candidates the push wave
// reaches, whether it carries full bodies or compact sketches, and how
// an announcement is pulled. A lane runs the discipline it holds
// (netLane.relay). Everything here names nodes, blocks and suppression
// window slots by index; the only hashes read are the transaction
// hashes of a sketch, checked against the receiver's pool.

// relayBlock is dissemination phase 1 at node i, which just accepted
// block idx: the push wave, then the announce wave scheduled after full
// import — right after validation at the block's origin, which already
// executed it. slot is idx's window slot if the caller scanned for it,
// else slotUnknown. A node with no candidate draws no permutation and
// schedules no wave.
func (ln *netLane) relayBlock(i int32, now sim.Time, idx, slot int32, origin bool) {
	cand, slot := ln.candidates(i, idx, slot)
	if len(cand) == 0 {
		return
	}
	k, kind := ln.pushCount(len(cand)), MsgNewBlock
	if ln.relay.Mode == relay.Compact {
		kind = MsgCompactBlock
		ln.ctr.RelayCounters.SketchesSent += uint64(k)
	}
	ln.fanOut(i, idx, slot, cand, k, now+relay.ValidateDelay, kind)
	delay := relay.ValidateDelay + relay.ImportDelay
	if origin {
		delay = relay.ValidateDelay
	}
	ln.net.scheduleAnnounce(now+delay, i, idx, origin)
}

// pushCount is how many of n candidates the push wave reaches. Compact
// pushes sketches on the sqrt rule, so an R1 shoot-out row differs from
// sqrt-push only in what the push wave carries.
func (ln *netLane) pushCount(n int) int {
	switch ln.relay.Mode {
	case relay.PushAll:
		return n
	case relay.AnnounceOnly:
		return 0
	case relay.Hybrid:
		return min(int(math.Ceil(ln.relay.PushFraction*float64(n))), n)
	default: // SqrtPush, Compact
		return sqrtFanout(n)
	}
}

// sqrtFanout is the eth/63 sqrt rule with a floor of one.
func sqrtFanout(n int) int {
	return max(int(math.Sqrt(float64(n))), 1)
}

// announceWave is dissemination phase 2 at node i: hash announcements
// of block idx to the peers still not known to have it — all of them
// at the block's origin and in the hybrid's catch-up wave, otherwise a
// sqrt-bounded subset (Geth's fetcher rate-limits announcements; the
// paper's Table II measures a mean announcement in-degree of 2.585).
func (ln *netLane) announceWave(i int32, now sim.Time, idx int32, origin bool) {
	cand, slot := ln.candidates(i, idx, slotUnknown)
	n := len(cand)
	if n == 0 {
		return
	}
	if !origin && ln.relay.Mode != relay.Hybrid {
		n = sqrtFanout(n)
	}
	ln.fanOut(i, idx, slot, cand, n, now, MsgNewBlockHashes)
}

// candidates fills the lane scratch with the span positions of node i's
// peers not known to have block idx, in peer order, and returns them
// with idx's window slot (-1 when outside the window, where every peer
// is a candidate). It scans the window only when slot is slotUnknown.
// The slice is valid until the lane's next call.
func (ln *netLane) candidates(i, idx, slot int32) ([]int32, int32) {
	net := ln.net
	if slot == slotUnknown {
		slot = net.windowSlot(i, idx)
	}
	s := net.top.spans[i]
	// Room for every peer up front: the appends below never move c.
	c := roomFor(ln.candBuf, int(s.len))[:0]
	if slot < 0 {
		for p := int32(0); p < s.len; p++ {
			c = append(c, p)
		}
	} else {
		bit := uint64(1) << uint(slot)
		// The spill marks for slot, filtered once: the peer test below
		// scans this short list, not the node's whole spill.
		known := roomFor(ln.spillBuf, len(net.spill[i]))[:0]
		for _, m := range net.spill[i] {
			if m.slot == slot {
				known = append(known, m.peer)
			}
		}
		ln.spillBuf = known[:0]
		for p := int32(0); p < s.len; p++ {
			e := s.off + p
			if net.top.knowMask[e]&bit == 0 && !slices.Contains(known, net.top.adj[e]) {
				c = append(c, p)
			}
		}
	}
	ln.candBuf = c[:0]
	return c, slot
}

// fanOut shuffles node i's candidates in place from the lane stream and
// sends the first k a message of the given kind about block idx at
// time at, marking each peer as knowing the block. The shuffle draws
// exactly as rng.Perm(len(cand)) would, and cand[m] after it is
// cand[perm[m]] before. The edge bits are set straight from slot, idx
// entering i's window on the first send if it was not there.
func (ln *netLane) fanOut(i, idx, slot int32, cand []int32, k int, at sim.Time, kind MsgKind) {
	sim.Shuffle(ln.rng, cand)
	net := ln.net
	for _, p := range cand[:k] {
		edge := net.top.spans[i].off + p
		if slot < 0 {
			slot = net.windowAdd(i, idx)
		}
		net.top.knowMask[edge] |= 1 << uint(slot)
		f := flight{to: net.top.adj[edge], from: i, srcPos: net.top.revAdj[edge], kind: kind, item: idx}
		net.send(at, &f)
	}
}

// announcePull fetches block idx, which node i first learned of from
// an announcement by peer `from` (validated span position pos), after
// the announcement handling cost: a compact sketch under the compact
// discipline (BIP152 low-bandwidth mode) — skipped while a
// reconstruction or fallback fetch of the block is in flight, so a
// node never runs two body fetches for one block — and the full body
// otherwise.
func (ln *netLane) announcePull(i int32, now sim.Time, from, pos, idx int32) {
	kind := MsgGetBlock
	if ln.relay.Mode == relay.Compact {
		if ln.net.hasPending(i, idx) {
			return
		}
		kind = MsgGetCompact
	}
	ln.net.request(i, from, pos, now+relay.AnnounceHandleDelay, kind, idx, 0, 0)
}

// reconstruct processes the sketch f delivered to node i (slot is its
// block's window slot, pos the sender's validated span position):
// rebuild the body from the pool and accept it, or start the missing-tx
// round trip with the sender, or fetch the full body when more than the
// fallback threshold of its transactions is missing.
//
// The short-ID layer is modelled exact, with no codec: a sketch
// transaction is in the pool iff the receiver's pool has seen its
// hash. At 48-bit IDs a collision is ~2^-48 per pair, which this path
// rounds to zero as BIP152 deployments do.
func (ln *netLane) reconstruct(now sim.Time, f *flight, pos, slot int32) {
	net := ln.net
	i, idx, b := f.to, f.item, net.blockBody[f.item]
	if net.haveBits.get(i, idx) || net.hasPending(i, idx) {
		return
	}
	missing, missingBytes := 0, 0
	for _, tx := range b.Txs {
		if t, ok := net.txIdx.lookup(tx.Hash()); !ok || !net.txBits.get(i, t) {
			missing++
			missingBytes += tx.EncodedSize()
		}
	}
	ctr := &ln.ctr.RelayCounters
	switch {
	case missing == 0:
		ctr.ReconstructFull++
		net.acceptBlock(i, now, b, idx, slot, false)
	case float64(missing) > ln.relay.FallbackThreshold*float64(len(b.Txs)):
		ctr.ReconstructFallback++
		net.pending[i] = append(net.pending[i], pendingEntry{idx: idx})
		net.request(i, f.from, pos, now+relay.AnnounceHandleDelay, MsgGetBlock, idx, 0, 0)
	default:
		ctr.ReconstructPartial++
		ctr.MissingTxs += uint64(missing)
		ctr.MissingTxBytes += uint64(missingBytes)
		net.pending[i] = append(net.pending[i], pendingEntry{idx: idx, b: b})
		net.request(i, f.from, pos, now+relay.AnnounceHandleDelay, MsgGetBlockTxns, idx, missing, missingBytes)
	}
}

// request sends node i's pull of the given kind for block idx to peer
// `to`, the sender of the message being handled, whose validated
// position in i's span is pos. count and bytes size a missing-tx
// request. Unknown peers and self-sends are refused.
func (net *Network) request(i, to, pos int32, at sim.Time, kind MsgKind, idx int32, count, bytes int) {
	if to < 0 || int(to) >= net.Len() || to == i {
		return
	}
	f := flight{to: to, from: i, srcPos: net.respPos(i, pos), kind: kind, item: idx, txCount: int32(count), txBytes: int32(bytes)}
	net.send(at, &f)
}

// hasPending reports an in-flight compact fetch of block idx at node i.
func (net *Network) hasPending(i, idx int32) bool {
	for _, p := range net.pending[i] {
		if p.idx == idx {
			return true
		}
	}
	return false
}

// takePending settles node i's in-flight compact fetch of block idx, if
// any, and returns the sketch block it retained (nil for a full-body
// fallback, or when nothing was pending).
func (net *Network) takePending(i, idx int32) *types.Block {
	ps := net.pending[i]
	for k := range ps {
		if ps[k].idx == idx {
			b := ps[k].b
			ps[k] = ps[len(ps)-1]
			net.pending[i] = ps[:len(ps)-1]
			return b
		}
	}
	return nil
}
