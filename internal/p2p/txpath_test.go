package p2p

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// txFlood is what TestTxFloodPinned pins of one flood: the transport
// totals, the per-class rows, a digest of every node's ingress and a
// digest of the observer's (time, from, tx hash) sequence.
type txFlood struct {
	sent, bytes, dropped uint64
	classes              string
	ingress              string
	observed             int
	sequence             string
}

// runTxFlood floods five transactions over a 30-node overlay on one
// scheduler: node 5 relays nothing, transaction 0 is injected at two
// nodes at once, node 13 crashes while the first wave is on the wire,
// and node 11 observes.
func runTxFlood(t *testing.T, conductor bool) txFlood {
	t.Helper()
	f := newLayoutFixture(t, conductor, 26, relay.SqrtPush)
	nodes := f.addSpread(t, 30)
	if err := f.net.WireRandom(4); err != nil {
		t.Fatal(err)
	}
	nodes[5].setRelayEnabled(false)
	seq := sha256.New()
	observed := 0
	nodes[11].SetObserver(func(now sim.Time, from NodeID, msg *Message) {
		if msg.Kind != MsgTransactions {
			t.Fatalf("observed %v", msg.Kind)
		}
		for _, tx := range msg.Txs {
			h := tx.Hash()
			seq.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, uint64(now)), uint64(from)))
			seq.Write(h[:])
			observed++
		}
	})
	f.start(t)

	txs := make([]*types.Transaction, 5)
	for k := range txs {
		txs[k] = testTx(uint64(100 + k))
	}
	engine := f.global
	engine.Schedule(0, func(now sim.Time) {
		nodes[0].InjectTx(now, txs[0])
		nodes[20].InjectTx(now, txs[0])
	})
	engine.Schedule(40, func(sim.Time) { f.net.CrashNode(nodes[13]) })
	for k := 1; k < len(txs); k++ {
		tx, origin := txs[k], nodes[(7*k)%len(nodes)]
		engine.Schedule(sim.Time(300*k), func(now sim.Time) { origin.InjectTx(now, tx) })
	}
	f.run(2)
	f.net.FoldLanes()

	out := txFlood{sent: f.net.MessagesSent, bytes: f.net.BytesSent, dropped: f.net.MessagesDropped, observed: observed}
	for _, ct := range f.net.ClassTotals() {
		out.classes += fmt.Sprintf("%v:%d/%d ", ct.Kind, ct.Messages, ct.Bytes)
	}
	in := sha256.New()
	for _, n := range nodes {
		in.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, n.MessagesIn()), n.BytesIn()))
	}
	out.ingress = fmt.Sprintf("%x", in.Sum(nil)[:8])
	out.sequence = fmt.Sprintf("%x", seq.Sum(nil)[:8])
	return out
}

// TestTxFloodPinned pins transaction gossip, on both schedulers, to
// the totals, per-node ingress and observed sequence the batch
// transport (one []*Transaction per flight, a map lookup per delivery)
// produced on region lanes: the values below were recorded on it, and
// re-recorded when latency model version 3 moved the delays and when
// model version 4 forked the lanes' streams before the wiring draws.
func TestTxFloodPinned(t *testing.T) {
	want := txFlood{sent: 948, bytes: 61620, dropped: 7, classes: "Transactions:948/61620 ",
		ingress: "0bcf21e679dc68fd", observed: 30, sequence: "98fd5502024522f0"}
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			if got := runTxFlood(t, lay.conductor); got != want {
				t.Errorf("flood %+v, want %+v", got, want)
			}
		})
	}
}

// TestInjectTxNil: like InjectBlock(nil), injecting a nil transaction
// is a no-op — nothing interned, nothing sent — on both schedulers.
func TestInjectTxNil(t *testing.T) {
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newLayoutFixture(t, lay.conductor, 3, relay.SqrtPush)
			nodes := f.addSpread(t, 12)
			if err := f.net.WireRandom(3); err != nil {
				t.Fatal(err)
			}
			f.start(t)
			nodes[0].InjectTx(f.now(), nil)
			f.run(2)
			f.net.FoldLanes()
			if len(f.net.txIdx.hashes) != 0 || len(f.net.txs) != 0 || f.net.MessagesSent != 0 {
				t.Fatalf("InjectTx(nil) interned %d hashes, %d transactions and sent %d messages",
					len(f.net.txIdx.hashes), len(f.net.txs), f.net.MessagesSent)
			}
		})
	}
}

// TestTxPathAllocCeiling holds the transaction path allocation-free in
// the steady state: a redundant delivery (slab slot, accounting, one
// dedup bit) and a fresh transaction's flood to 16 peers with every
// copy delivered. The batch transport it replaced allocated a slice per
// fresh reception.
func TestTxPathAllocCeiling(t *testing.T) {
	s := newStageFixture(t, 16)
	hub := s.hub.idx()
	s.hub.setRelayEnabled(true)
	engine := s.net.Engine()
	deliver := testing.AllocsPerRun(1000, func() {
		f := flight{to: hub, from: s.peers[0].idx(), srcPos: -1, size: 128, kind: MsgTransactions, item: s.txIdx}
		s.ln.HandleEvent(engine.Now(), opDeliver, uint64(s.ln.flights.put(&f)))
	})
	fanout := testing.AllocsPerRun(1000, func() {
		s.net.txBits.clear(hub, s.txIdx)
		s.net.handleTx(hub, engine.Now(), hub, s.txIdx)
		engine.Run()
	})
	if deliver != 0 || fanout != 0 {
		t.Fatalf("tx path allocates: %v per redundant delivery, %v per fan-out with its deliveries; want 0", deliver, fanout)
	}
	if s.net.MessagesSent < 16*1000 {
		t.Fatalf("%d sends: the fan-out did not flood", s.net.MessagesSent)
	}
}
