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
// fan-out and pulls, the pull server, transaction gossip — and
// checks that b's observer is shown, field for field, the Message the
// pooled-message transport delivered for it, and that the bytes the
// flight was accounted at are that Message's Size. A transaction
// message carries the one transaction injected, as it always has.
func TestFlightViewMatchesMessage(t *testing.T) {
	net := zeroLatencyNetwork(t, 1)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	txs := []*types.Transaction{testTx(0), testTx(1)}
	// One block per kind, so no send suppresses a later one.
	blocks := make([]*types.Block, msgKindCount)
	idx := make([]int32, msgKindCount)
	for k := range blocks {
		blocks[k] = types.NewBlock(types.Header{Number: uint64(k + 1), MinerLabel: "View", GasLimit: 8_000_000}, txs, nil)
		idx[k] = net.internBlock(blocks[k])
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
		cp.Txs = append([]*types.Transaction(nil), msg.Txs...)
		got[msg.Kind] = append(got[msg.Kind], seen{cp, b.BytesIn() - bytesIn})
		bytesIn = b.BytesIn()
	})

	ln := net.laneOf(a.idx())
	push := func(k MsgKind, body *types.Block) {
		if body != nil {
			// A node relays a body it has accepted, so the body is
			// published.
			net.rememberBlock(a.idx(), idx[k], body)
		}
		cand, slot := ln.candidates(a.idx(), idx[k], slotUnknown)
		if len(cand) != 1 {
			t.Fatalf("%v: b is not a candidate", k)
		}
		ln.fanOut(a.idx(), idx[k], slot, cand, 1, 0, k)
	}
	pull := func(from, to *Node, kind, k MsgKind, count, bytes int) {
		net.request(from.idx(), to.idx(), net.top.position(from.idx(), to.idx()), 0, kind, idx[k], count, bytes)
	}
	push(MsgNewBlock, blk(MsgNewBlock))
	push(MsgNewBlockHashes, nil)
	push(MsgCompactBlock, blk(MsgCompactBlock))
	pull(a, b, MsgGetBlock, MsgGetBlock, 0, 0)
	pull(a, b, MsgGetCompact, MsgGetCompact, 0, 0)
	pull(a, b, MsgGetBlockTxns, MsgGetBlockTxns, 3, 333)
	// BlockTxns only ever travels as the pull server's reply.
	net.rememberBlock(a.idx(), idx[MsgBlockTxns], blk(MsgBlockTxns))
	pull(b, a, MsgGetBlockTxns, MsgBlockTxns, 4, 444)
	a.InjectTx(0, txs[1])
	net.Engine().Run()

	want := []Message{
		{Kind: MsgNewBlock, Block: blk(MsgNewBlock)},
		{Kind: MsgNewBlockHashes, Hashes: []types.Hash{hash(MsgNewBlockHashes)}},
		{Kind: MsgGetBlock, Want: hash(MsgGetBlock)},
		{Kind: MsgTransactions, Txs: txs[1:]},
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
// region lanes). No node asks for the parent twice, and nobody can
// serve it. The totals below were recorded on the pooled-message
// transport, on region lanes, and re-recorded when latency model
// version 3 moved the delays and when model version 4 made the pull
// one request per node.
func TestParentInternedAtInjection(t *testing.T) {
	want := struct{ sent, bytes, pulls uint64 }{sent: 334, bytes: 35286, pulls: 22}
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newLayoutFixture(t, lay.conductor, 21, relay.SqrtPush)
			nodes := f.addSpread(t, 24)
			if err := f.net.WireRandom(4); err != nil {
				t.Fatal(err)
			}
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

			pulls := f.net.RelayCounters.ParentPulls
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
			w := want
			if f.net.MessagesSent != w.sent || f.net.BytesSent != w.bytes || pulls != w.pulls {
				t.Errorf("sent %d messages / %d bytes, %d parent pulls; want %d / %d, %d",
					f.net.MessagesSent, f.net.BytesSent, pulls, w.sent, w.bytes, w.pulls)
			}
		})
	}
}
