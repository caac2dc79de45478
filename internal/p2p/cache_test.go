package p2p

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// cacheLen reports how many bodies node n can still serve.
func cacheLen(n *Node) int { return len(n.net.cacheQ[n.idx()]) }

// cacheHas reports whether node n can still serve the body for h.
func cacheHas(n *Node, h types.Hash) bool {
	idx, ok := n.net.blockIdx.lookup(h)
	return ok && n.net.cachedBits.get(n.idx(), idx)
}

// haveCount counts node n's dedup bits across all interned blocks.
func haveCount(n *Node) int {
	g := &n.net.haveBits
	i := n.idx()
	if i >= g.rows {
		return 0
	}
	c := 0
	for _, w := range g.words[i*g.stride : (i+1)*g.stride] {
		c += bits.OnesCount64(w)
	}
	return c
}

// TestBlockCacheBounded relays far more blocks than blockCacheCap and
// verifies the body cache stays bounded while the dedup ground truth
// (haveBlocks) keeps every hash.
func TestBlockCacheBounded(t *testing.T) {
	net := zeroLatencyNetwork(t, 3)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	total := blockCacheCap + 200
	for i := 0; i < total; i++ {
		a.InjectBlock(sim.Time(i), testBlock(uint64(i+1), "Ethermine"))
		net.Engine().Run()
	}
	if cacheLen(a) > blockCacheCap {
		t.Fatalf("body cache grew to %d entries (cap %d)", cacheLen(a), blockCacheCap)
	}
	if haveCount(a) != total {
		t.Fatalf("dedup bits cover %d hashes, want %d", haveCount(a), total)
	}
	// Eviction is FIFO: the most recent blocks are still servable, the
	// oldest are not — but both still count as known (no re-relay).
	newest := testBlock(uint64(total), "Ethermine").Hash()
	if !cacheHas(a, newest) {
		t.Fatal("newest block evicted from body cache")
	}
	oldest := testBlock(1, "Ethermine").Hash()
	if cacheHas(a, oldest) {
		t.Fatal("oldest block survived past the cap")
	}
	if !a.KnowsBlock(oldest) {
		t.Fatal("evicted block must still be known (dedup)")
	}
}

// TestBlockCacheEvictionOrder pins the body cache's exact boundary
// and order semantics: inserting precisely blockCacheCap blocks evicts
// nothing (eviction is past-capacity, not on-insert), the cap+1-th
// insert evicts exactly the oldest entry, and continued inserts evict
// in strict FIFO insertion order.
func TestBlockCacheEvictionOrder(t *testing.T) {
	net := zeroLatencyNetwork(t, 7)
	a := addNode(t, net, geo.WesternEurope, 0)
	hashAt := func(i int) types.Hash { return testBlock(uint64(i+1), "Ethermine").Hash() }

	// Fill to exactly the cap: every body must still be servable.
	for i := 0; i < blockCacheCap; i++ {
		net.rememberBlock(a.idx(), net.blockIdx.intern(hashAt(i)), testBlock(uint64(i+1), "Ethermine"))
	}
	if cacheLen(a) != blockCacheCap {
		t.Fatalf("cache holds %d bodies at exactly cap inserts, want %d (on-insert eviction off-by-one)",
			cacheLen(a), blockCacheCap)
	}
	if !cacheHas(a, hashAt(0)) {
		t.Fatal("oldest body evicted at exactly cap inserts (on-insert eviction off-by-one)")
	}

	// One past the cap evicts exactly the first insert, nothing else.
	net.rememberBlock(a.idx(), net.blockIdx.intern(hashAt(blockCacheCap)), testBlock(uint64(blockCacheCap+1), "Ethermine"))
	if cacheLen(a) != blockCacheCap {
		t.Fatalf("cache holds %d bodies past cap, want %d", cacheLen(a), blockCacheCap)
	}
	if cacheHas(a, hashAt(0)) {
		t.Fatal("first insert survived the cap+1-th insert")
	}
	if !cacheHas(a, hashAt(1)) {
		t.Fatal("second insert evicted out of FIFO order")
	}

	// Continued inserts walk the eviction boundary in insertion order:
	// after cap+k inserts exactly the first k are gone.
	const extra = 37
	for i := 1; i < extra; i++ {
		net.rememberBlock(a.idx(), net.blockIdx.intern(hashAt(blockCacheCap+i)), testBlock(uint64(blockCacheCap+i+1), "Ethermine"))
	}
	for i := 0; i < extra; i++ {
		if cacheHas(a, hashAt(i)) {
			t.Fatalf("insert %d survived past its FIFO eviction point", i)
		}
		if !a.KnowsBlock(hashAt(i)) {
			t.Fatalf("evicted insert %d lost its dedup entry", i)
		}
	}
	for i := extra; i < extra+5; i++ {
		if !cacheHas(a, hashAt(i)) {
			t.Fatalf("insert %d evicted early (non-FIFO order)", i)
		}
	}
	// The queue mirrors the cache exactly.
	if cacheLen(a) != blockCacheCap {
		t.Fatalf("eviction queue length %d, want %d", cacheLen(a), blockCacheCap)
	}
	headIdx, ok := net.blockIdx.lookup(hashAt(extra))
	if !ok || net.cacheQ[a.idx()][0] != headIdx {
		t.Fatal("eviction queue head is not the oldest retained insert")
	}
}

// TestMessagePoolReuse drives repeated dissemination and checks, per
// lane, what replaced the message pool: the flight slab recycles its
// slots — its length is bounded by the lane's peak number of events in
// flight, not by the number of sends — every flight and announce slot
// is back on its free list once the run drains, a freed slot keeps no
// block or transaction-batch pointer alive, and the cross buffers are
// empty.
func TestMessagePoolReuse(t *testing.T) {
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newLayoutFixture(t, lay.regionLanes, 4, relay.SqrtPush)
			nodes := f.addSpread(t, 12)
			if err := f.net.WireRandom(4); err != nil {
				t.Fatal(err)
			}
			f.start(t)
			for i, blk := range chainOf(50) {
				nodes[(7*i)%len(nodes)].InjectBlock(f.now(), blk)
				nodes[(5*i)%len(nodes)].InjectTx(f.now(), testTx(uint64(i)))
				f.run(2)
			}
			f.net.FoldLanes()
			slots := 0
			for i, ln := range f.net.all {
				slots += len(ln.flights)
				free := 0
				for next := ln.freeFlight; next != 0; next = ln.flights[next-1].to {
					free++
				}
				if free != len(ln.flights) {
					t.Errorf("lane %d flight slab leak: %d slots, %d free", i, len(ln.flights), free)
				}
				for k, fl := range ln.flights {
					if fl.kind != 0 || fl.b != nil || fl.txs != nil {
						t.Errorf("lane %d freed flight slot %d still holds %+v", i, k, fl)
					}
				}
				if peak := ln.engine.Stats().MaxPending; len(ln.flights) > peak {
					t.Errorf("lane %d flight slab has %d slots for a peak of %d events in flight", i, len(ln.flights), peak)
				}
				if len(ln.annFree) != len(ln.ann) {
					t.Errorf("lane %d announce slab leak: %d slots, %d free", i, len(ln.ann), len(ln.annFree))
				}
				if len(ln.cross) != 0 {
					t.Errorf("lane %d cross buffer holds %d undelivered messages", i, len(ln.cross))
				}
				for k, cm := range ln.cross[:cap(ln.cross)] {
					if cm.f.b != nil || cm.f.txs != nil {
						t.Errorf("lane %d drained cross entry %d still holds a payload", i, k)
					}
				}
			}
			if slots == 0 {
				t.Fatal("no flight slots after 50 dissemination rounds")
			}
			if uint64(slots)*4 >= f.net.MessagesSent {
				t.Fatalf("slabs hold %d slots for %d sends: no reuse happened", slots, f.net.MessagesSent)
			}
		})
	}
}

// TestPooledMessagePayloadIntegrity checks that announcements shown to
// observers carry the right hash even when many for different blocks
// are in flight at once: the lane's one reusable view must be refilled
// from each flight's own block index.
func TestPooledMessagePayloadIntegrity(t *testing.T) {
	net := zeroLatencyNetwork(t, 5)
	hub := addNode(t, net, geo.WesternEurope, 0)
	var leaves []*Node
	for i := 0; i < 30; i++ {
		n := addNode(t, net, geo.WesternEurope, 0)
		if err := net.Connect(hub, n); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, n)
	}
	want := map[types.Hash]bool{}
	seen := map[types.Hash]int{}
	for _, n := range leaves {
		n.SetObserver(func(_ sim.Time, _ NodeID, msg *Message) {
			if msg.Kind == MsgNewBlockHashes {
				for _, h := range msg.Hashes {
					seen[h]++
				}
			}
		})
	}
	for i := 0; i < 10; i++ {
		blk := testBlock(uint64(i+1), fmt.Sprintf("Pool%d", i))
		want[blk.Hash()] = true
		hub.InjectBlock(sim.Time(i), blk)
	}
	net.Engine().Run()
	for h, n := range seen {
		if !want[h] {
			t.Fatalf("announcement carried unknown hash %v (%d times) — pooled payload corrupted", h, n)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no announcements observed")
	}
}
