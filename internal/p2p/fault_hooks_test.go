package p2p

import (
	"errors"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

// testFilter is a scriptable LinkFilter.
type testFilter struct {
	drop  bool
	extra sim.Time
	calls int
}

var errTestDrop = errors.New("p2p_test: scripted drop")

func (f *testFilter) FilterLink(now sim.Time, from, to *Node) (sim.Time, error) {
	f.calls++
	if f.drop {
		return 0, errTestDrop
	}
	return f.extra, nil
}

// TestCrashDropsTraffic checks all three drop points: sends to a down
// node, in-flight deliveries to a node that crashes mid-transit, and
// injections at a down node.
func TestCrashDropsTraffic(t *testing.T) {
	net := zeroLatencyNetwork(t, 31)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}

	// In-flight crash: the block leaves a, then b crashes before the
	// delivery event fires.
	a.InjectBlock(0, testBlock(1, "Ethermine"))
	net.CrashNode(b)
	net.Engine().Run()
	if !b.Down() {
		t.Fatal("b not down")
	}
	if b.KnowsBlock(testBlock(1, "Ethermine").Hash()) {
		t.Fatal("down node received an in-flight block")
	}
	if net.MessagesDropped == 0 {
		t.Fatal("in-flight delivery to a crashed node not counted as dropped")
	}
	if a.PeerCount() != 0 || b.PeerCount() != 0 {
		t.Fatalf("crash left connections: a=%d b=%d", a.PeerCount(), b.PeerCount())
	}

	// Injection at a down node is swallowed.
	before := net.MessagesSent
	b.InjectBlock(10, testBlock(2, "Ethermine"))
	net.Engine().Run()
	if net.MessagesSent != before {
		t.Fatal("down node relayed an injection")
	}
	if b.KnowsBlock(testBlock(2, "Ethermine").Hash()) {
		t.Fatal("down node recorded an injection")
	}

	// Recovery restores service.
	net.RecoverNode(b)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	a.InjectBlock(20, testBlock(3, "F2Pool"))
	net.Engine().Run()
	if !b.KnowsBlock(testBlock(3, "F2Pool").Hash()) {
		t.Fatal("recovered node did not receive a fresh block")
	}
}

// TestDisconnectIsSymmetricAndOrderPreserving pins Disconnect's
// contract: both directions drop, survivors keep their order.
func TestDisconnectIsSymmetricAndOrderPreserving(t *testing.T) {
	net := zeroLatencyNetwork(t, 33)
	hub := addNode(t, net, geo.WesternEurope, 0)
	var leaves []*Node
	for i := 0; i < 4; i++ {
		n := addNode(t, net, geo.WesternEurope, 0)
		if err := net.Connect(hub, n); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, n)
	}
	net.Disconnect(hub, leaves[1])
	if hub.PeerCount() != 3 {
		t.Fatalf("hub peers %d, want 3", hub.PeerCount())
	}
	if leaves[1].PeerCount() != 0 {
		t.Fatal("disconnect was not symmetric")
	}
	want := []NodeID{leaves[0].ID(), leaves[2].ID(), leaves[3].ID()}
	for i := range want {
		got := NodeID(net.top.peerAt(hub.idx(), int32(i)) + 1)
		if got != want[i] {
			t.Fatalf("peer order disturbed at %d: %d want %d", i, got, want[i])
		}
	}
	// Disconnecting an unconnected pair is a no-op.
	net.Disconnect(hub, leaves[1])
	if hub.PeerCount() != 3 {
		t.Fatal("double disconnect mutated the peer list")
	}
}

// TestLinkFilterDropAndDelay checks the transport consults the filter
// once per send and honors both outcomes.
func TestLinkFilterDropAndDelay(t *testing.T) {
	net := zeroLatencyNetwork(t, 35)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	filter := &testFilter{drop: true}
	net.Fault = filter

	a.InjectBlock(0, testBlock(1, "Ethermine"))
	net.Engine().Run()
	if filter.calls == 0 {
		t.Fatal("filter never consulted")
	}
	if b.KnowsBlock(testBlock(1, "Ethermine").Hash()) {
		t.Fatal("dropped send delivered anyway")
	}
	if net.MessagesDropped == 0 {
		t.Fatal("filtered drop not counted")
	}

	// Extra delay defers, but does not drop, delivery.
	filter.drop = false
	filter.extra = 500 * sim.Millisecond
	a.InjectBlock(1000, testBlock(2, "Ethermine"))
	net.Engine().RunUntil(1000 + 400*sim.Millisecond)
	if b.KnowsBlock(testBlock(2, "Ethermine").Hash()) {
		t.Fatal("delivery arrived before the scripted extra delay")
	}
	net.Engine().Run()
	if !b.KnowsBlock(testBlock(2, "Ethermine").Hash()) {
		t.Fatal("delayed delivery never arrived")
	}
}

// TestParentPullRecoversMissedAncestry simulates the partition gap: a
// node that missed a block range pulls the whole missing ancestry when
// the next descendant arrives, via recursive GetBlock walks.
func TestParentPullRecoversMissedAncestry(t *testing.T) {
	net := zeroLatencyNetwork(t, 37)
	net.ParentPull = true
	src := addNode(t, net, geo.WesternEurope, 0)
	lagger := addNode(t, net, geo.WesternEurope, 0)

	// src owns a 5-block chain the lagger never saw.
	chain := make([]*types.Block, 0, 5)
	parent := types.Hash{}
	for i := 1; i <= 5; i++ {
		h := types.Header{
			Number: uint64(i), ParentHash: parent, MinerLabel: "Ethermine",
			TimeMillis: uint64(i), Difficulty: 1, GasLimit: 8_000_000,
		}
		b := types.NewBlock(h, nil, nil)
		chain = append(chain, b)
		parent = b.Hash()
		net.rememberBlock(src.idx(), net.blockIdx.intern(b.Hash()), b)
	}

	// The lagger connects and receives only the tip.
	if err := net.Connect(src, lagger); err != nil {
		t.Fatal(err)
	}
	tip := chain[4]
	net.send(0, &flight{to: lagger.idx(), from: src.idx(), srcPos: -1, kind: MsgNewBlock, block: net.blockIdx.mustLookup(tip.Hash()), b: tip})
	net.Engine().Run()

	for i, b := range chain {
		if !lagger.KnowsBlock(b.Hash()) {
			t.Fatalf("ancestry block %d (height %d) not pulled", i, b.Header.Number)
		}
	}

	// Without the knob, the gap stays: only the tip arrives.
	net2 := zeroLatencyNetwork(t, 39)
	src2 := addNode(t, net2, geo.WesternEurope, 0)
	lag2 := addNode(t, net2, geo.WesternEurope, 0)
	for _, b := range chain {
		net2.rememberBlock(src2.idx(), net2.blockIdx.intern(b.Hash()), b)
	}
	if err := net2.Connect(src2, lag2); err != nil {
		t.Fatal(err)
	}
	net2.send(0, &flight{to: lag2.idx(), from: src2.idx(), srcPos: -1, kind: MsgNewBlock, block: net2.blockIdx.mustLookup(tip.Hash()), b: tip})
	net2.Engine().Run()
	if lag2.KnowsBlock(chain[0].Hash()) {
		t.Fatal("parent pull ran with ParentPull disabled")
	}
	if !lag2.KnowsBlock(tip.Hash()) {
		t.Fatal("tip not delivered")
	}
}
