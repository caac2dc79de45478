package p2p

import (
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// sameMessage compares everything an observer can see of a Message.
func sameMessage(a, b *Message) bool {
	return a.Kind == b.Kind && a.Block == b.Block && a.Want == b.Want &&
		reflect.DeepEqual(a.Hashes, b.Hashes) && reflect.DeepEqual(a.Txs, b.Txs) &&
		a.TxCount == b.TxCount && a.TxBytes == b.TxBytes
}

// TestFlightViewMatchesMessage sends one message of every kind from a
// to b through the code that really builds each flight — the relay
// env's pushes and requests, the pull server, transaction gossip — and
// checks that b's observer is shown, field for field, the Message the
// pooled-message transport delivered for it, and that the bytes the
// flight was accounted at are that Message's Size.
func TestFlightViewMatchesMessage(t *testing.T) {
	net := zeroLatencyNetwork(t, 1)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	txs := []*types.Transaction{testTx(0), testTx(1)}
	for _, tx := range txs {
		net.txIdx.intern(tx.Hash())
	}
	// One block per kind, so no send suppresses a later one.
	blocks := make([]*types.Block, msgKindCount)
	idx := make([]int32, msgKindCount)
	for k := range blocks {
		blocks[k] = types.NewBlock(types.Header{Number: uint64(k + 1), MinerLabel: "View", GasLimit: 8_000_000}, txs, nil)
		idx[k] = net.blockIdx.intern(blocks[k].Hash())
	}
	blk := func(k MsgKind) *types.Block { return blocks[k] }
	hash := func(k MsgKind) types.Hash { return blocks[k].Hash() }

	type seen struct {
		msg  Message
		size uint64
	}
	got := map[MsgKind][]seen{}
	var bytesIn uint64
	b.SetObserver(func(_ sim.Time, from NodeID, msg *Message) {
		if from != a.ID() {
			t.Errorf("%v observed from node %d, want %d", msg.Kind, from, a.ID())
		}
		cp := *msg
		cp.Hashes = append([]types.Hash(nil), msg.Hashes...)
		got[msg.Kind] = append(got[msg.Kind], seen{cp, b.BytesIn() - bytesIn})
		bytesIn = b.BytesIn()
	})

	ln := net.home
	at := func(k MsgKind, n *Node) *relayEnv {
		env := ln.envFor(n.idx(), 0, -1, -1, idx[k], slotUnknown)
		if n == a && env.Candidates(hash(k)) != 1 {
			t.Fatalf("%v: b is not a candidate", k)
		}
		return env
	}
	at(MsgNewBlock, a).PushBlock(0, 0, blk(MsgNewBlock))
	at(MsgNewBlockHashes, a).Announce(0, 0, hash(MsgNewBlockHashes))
	at(MsgCompactBlock, a).PushCompact(0, 0, blk(MsgCompactBlock))
	at(MsgGetBlock, a).RequestBlock(int(b.ID()), 0, hash(MsgGetBlock))
	at(MsgGetCompact, a).RequestCompact(int(b.ID()), 0, hash(MsgGetCompact))
	at(MsgGetBlockTxns, a).RequestTxns(int(b.ID()), 0, hash(MsgGetBlockTxns), 3, 333)
	// BlockTxns only ever travels as the pull server's reply.
	net.rememberBlock(a.idx(), idx[MsgBlockTxns], blk(MsgBlockTxns))
	at(MsgBlockTxns, b).RequestTxns(int(a.ID()), 0, hash(MsgBlockTxns), 4, 444)
	net.handleTxs(a.idx(), 0, a.idx(), txs)
	net.Engine().Run()

	want := []Message{
		{Kind: MsgNewBlock, Block: blk(MsgNewBlock)},
		{Kind: MsgNewBlockHashes, Hashes: []types.Hash{hash(MsgNewBlockHashes)}},
		{Kind: MsgGetBlock, Want: hash(MsgGetBlock)},
		{Kind: MsgTransactions, Txs: txs},
		{Kind: MsgCompactBlock, Block: blk(MsgCompactBlock)},
		{Kind: MsgGetCompact, Want: hash(MsgGetCompact)},
		{Kind: MsgGetBlockTxns, Want: hash(MsgGetBlockTxns), TxCount: 3, TxBytes: 333},
		{Kind: MsgBlockTxns, Want: hash(MsgBlockTxns), TxCount: 4, TxBytes: 444},
	}
	if len(want) != int(msgKindCount)-1 {
		t.Fatalf("table covers %d kinds of %d", len(want), msgKindCount-1)
	}
	for i := range want {
		w := &want[i]
		s := got[w.Kind]
		if len(s) != 1 {
			t.Errorf("%v: observed %d times, want once", w.Kind, len(s))
			continue
		}
		if !sameMessage(&s[0].msg, w) {
			t.Errorf("%v: observer saw %+v, want %+v", w.Kind, s[0].msg, *w)
		}
		if s[0].size != uint64(w.Size()) || s[0].msg.Size() != w.Size() {
			t.Errorf("%v: flight accounted %d bytes, view sizes to %d, Message.Size is %d",
				w.Kind, s[0].size, s[0].msg.Size(), w.Size())
		}
	}
}

// TestParentInternedAtInjection is the regression test for interning
// from region lanes. A gateway is down when its block is injected, so
// that block's hash never enters the network; its child then spreads,
// and every receiver pulls the missing parent from whoever sent the
// child. The GetBlock flight must name the parent by index, which only
// exists because InjectBlock interned the child's ParentHash in phase A
// — a lane must never intern (a concurrent map write under -race on the
// region lanes) and a lookup miss there panics. The pulls are sent,
// counted and ignored exactly as the pooled-message transport did: the
// totals below were recorded on it, per layout (the layouts draw from
// different RNG streams).
func TestParentInternedAtInjection(t *testing.T) {
	want := map[string]struct{ sent, bytes, pulls uint64 }{
		"one-lane":     {sent: 348, bytes: 34638, pulls: 72},
		"region-lanes": {sent: 345, bytes: 34708, pulls: 73},
	}
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newLayoutFixture(t, lay.regionLanes, 21, relay.SqrtPush)
			nodes := f.addSpread(t, 24)
			if err := f.net.WireRandom(4); err != nil {
				t.Fatal(err)
			}
			f.net.ParentPull = true
			f.start(t)
			chain := chainOf(4)
			gateway := nodes[5]

			nodes[0].InjectBlock(f.now(), chain[0])
			f.run(2)
			f.net.CrashNode(gateway)
			gateway.InjectBlock(f.now(), chain[1]) // swallowed
			nodes[9].InjectBlock(f.now(), chain[2])
			f.run(2)
			nodes[14].InjectBlock(f.now(), chain[3])
			f.run(2)
			f.net.FoldLanes()

			var pulls uint64
			for _, ct := range f.net.ClassTotals() {
				if ct.Kind == MsgGetBlock {
					pulls = ct.Messages
				}
			}
			if pulls == 0 {
				t.Fatal("no parent pull was sent; the test is vacuous")
			}
			for _, n := range nodes {
				if n.KnowsBlock(chain[1].Hash()) {
					t.Fatalf("node %d has the block no live node ever held", n.ID())
				}
				if n != gateway && !n.KnowsBlock(chain[3].Hash()) {
					t.Fatalf("node %d missed the tip", n.ID())
				}
			}
			w := want[lay.name]
			if f.net.MessagesSent != w.sent || f.net.BytesSent != w.bytes || pulls != w.pulls {
				t.Errorf("sent %d messages / %d bytes, %d parent pulls; the pooled-message transport sent %d / %d, %d",
					f.net.MessagesSent, f.net.BytesSent, pulls, w.sent, w.bytes, w.pulls)
			}
		})
	}
}
