package p2p

import (
	"errors"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

func newTestNetwork(t *testing.T, seed uint64) *Network {
	t.Helper()
	engine := sim.NewEngine()
	rng := sim.NewRNG(seed)
	return NewNetwork(engine, rng, geo.DefaultLatencyModel())
}

func addNode(t *testing.T, net *Network, r geo.Region, maxPeers int) *Node {
	t.Helper()
	n, err := net.AddNode(r, maxPeers)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testBlock(n uint64, label string) *types.Block {
	return types.NewBlock(types.Header{
		ParentHash: types.HashBytes([]byte("parent")),
		Number:     n,
		Miner:      types.AddressFromString(label),
		MinerLabel: label,
		Difficulty: 1000,
		GasLimit:   8_000_000,
	}, nil, nil)
}

func testTx(nonce uint64) *types.Transaction {
	return &types.Transaction{
		Sender: types.AddressFromString("sender"),
		To:     types.AddressFromString("sink"),
		Nonce:  nonce, GasPrice: 1, Gas: types.TxGas,
	}
}

func TestAddNodeValidation(t *testing.T) {
	net := newTestNetwork(t, 1)
	if _, err := net.AddNode(geo.Region(0), 0); err == nil {
		t.Fatal("invalid region must error")
	}
	n := addNode(t, net, geo.NorthAmerica, 25)
	if n.Region() != geo.NorthAmerica || n.ID() == 0 {
		t.Fatal("node fields wrong")
	}
	if net.Len() != 1 {
		t.Fatal("len wrong")
	}
	if _, err := net.Node(n.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Node(999); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: %v", err)
	}
}

func TestConnectRules(t *testing.T) {
	net := newTestNetwork(t, 2)
	a := addNode(t, net, geo.NorthAmerica, 1)
	b := addNode(t, net, geo.EasternAsia, 0)
	c := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, a); !errors.Is(err, ErrSelfDial) {
		t.Fatalf("self dial: %v", err)
	}
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := net.Connect(b, a); err != nil {
		t.Fatal(err)
	}
	if a.PeerCount() != 1 || b.PeerCount() != 1 {
		t.Fatalf("peer counts: %d %d", a.PeerCount(), b.PeerCount())
	}
	// a is at its limit of 1.
	if err := net.Connect(a, c); err == nil {
		t.Fatal("over-limit connect must error")
	}
	if err := net.Connect(nil, c); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("nil connect: %v", err)
	}
}

func TestWireRandomDegree(t *testing.T) {
	net := newTestNetwork(t, 3)
	for i := 0; i < 200; i++ {
		addNode(t, net, geo.NorthAmerica, 0)
	}
	if err := net.WireRandom(8); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range net.Nodes() {
		if n.PeerCount() < 8 {
			t.Fatalf("node %d underconnected: %d", n.ID(), n.PeerCount())
		}
		total += n.PeerCount()
	}
	mean := float64(total) / 200
	if mean < 14 || mean > 18 {
		t.Fatalf("mean degree ~16 expected, got %v", mean)
	}
	if err := net.WireRandom(0); err == nil {
		t.Fatal("degree 0 must error")
	}
}

func TestWireRandomSmall(t *testing.T) {
	net := newTestNetwork(t, 4)
	addNode(t, net, geo.NorthAmerica, 0)
	if err := net.WireRandom(3); err != nil {
		t.Fatal("single node wiring should be a no-op")
	}
}

func TestConnectSample(t *testing.T) {
	net := newTestNetwork(t, 5)
	for i := 0; i < 50; i++ {
		addNode(t, net, geo.CentralEurope, 0)
	}
	m := addNode(t, net, geo.WesternEurope, 0)
	if err := net.ConnectSample(m, 25); err != nil {
		t.Fatal(err)
	}
	if m.PeerCount() != 25 {
		t.Fatalf("peer count: %d", m.PeerCount())
	}
	if err := net.ConnectSample(nil, 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("nil sample: %v", err)
	}
}

// TestBlockFloodsNetwork runs push-all, under which every holder sends
// the body to every peer not known to have it, so a connected overlay
// is covered by construction. (The sqrt disciplines' bounded announce
// waves miss a node in about one seed of twenty on this fixture.)
func TestBlockFloodsNetwork(t *testing.T) {
	net := newTestNetwork(t, 6)
	net.SetRelay(relay.MustNew(relay.Config{Mode: relay.PushAll}))
	for i := 0; i < 100; i++ {
		addNode(t, net, geo.NorthAmerica, 0)
	}
	if err := net.WireRandom(6); err != nil {
		t.Fatal(err)
	}
	origin := net.Nodes()[0]
	b := testBlock(1, "Ethermine")
	origin.InjectBlock(0, b)
	net.Engine().Run()
	for _, n := range net.Nodes() {
		if !n.KnowsBlock(b.Hash()) {
			t.Fatalf("node %d never received the block", n.ID())
		}
	}
	if net.MessagesSent == 0 || net.BytesSent == 0 {
		t.Fatal("transport counters not advancing")
	}
}

func TestBlockPropagationDelayReasonable(t *testing.T) {
	// With realistic latencies a 500-node flood should complete well
	// under the 13.3 s inter-block time: the paper's core network
	//-efficiency finding (§III-A).
	net := newTestNetwork(t, 7)
	placement, err := geo.PlaceNodes(500, geo.DefaultNodeShare)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range placement {
		addNode(t, net, r, 0)
	}
	if err := net.WireRandom(8); err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	count := 0
	b := testBlock(1, "Ethermine")
	for _, n := range net.Nodes() {
		n.SetObserver(func(now sim.Time, _ NodeID, msg *Message) {
			if msg.Kind == MsgNewBlock && msg.Block.Hash() == b.Hash() {
				if now > last {
					last = now
				}
				count++
			}
		})
	}
	net.Nodes()[0].InjectBlock(0, b)
	net.Engine().Run()
	if last == 0 {
		t.Fatal("no receptions observed")
	}
	if last > 5*sim.Second {
		t.Fatalf("network too slow: last reception at %v", last)
	}
}

func TestAnnouncementPullPath(t *testing.T) {
	// A node receiving only an announcement must fetch the block.
	net := newTestNetwork(t, 8)
	a := addNode(t, net, geo.NorthAmerica, 0)
	// Enough peers that sqrt(n) < n, guaranteeing some announcements.
	others := make([]*Node, 9)
	for i := range others {
		others[i] = addNode(t, net, geo.NorthAmerica, 0)
		if err := net.Connect(a, others[i]); err != nil {
			t.Fatal(err)
		}
	}
	sawAnnouncement := false
	sawGet := false
	for _, o := range others {
		o.SetObserver(func(_ sim.Time, _ NodeID, msg *Message) {
			if msg.Kind == MsgNewBlockHashes {
				sawAnnouncement = true
			}
		})
	}
	a.SetObserver(func(_ sim.Time, _ NodeID, msg *Message) {
		if msg.Kind == MsgGetBlock {
			sawGet = true
		}
	})
	b := testBlock(1, "Sparkpool")
	a.InjectBlock(0, b)
	net.Engine().Run()
	if !sawAnnouncement {
		t.Fatal("no announcements sent (sqrt rule broken)")
	}
	if !sawGet {
		t.Fatal("announcement never triggered a pull")
	}
	for _, o := range others {
		if !o.KnowsBlock(b.Hash()) {
			t.Fatalf("node %d missing block after pull", o.ID())
		}
	}
}

func TestDuplicateBlockNotReprocessed(t *testing.T) {
	net := newTestNetwork(t, 9)
	a := addNode(t, net, geo.NorthAmerica, 0)
	b := addNode(t, net, geo.NorthAmerica, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	blk := testBlock(1, "F2pool2")
	a.InjectBlock(0, blk)
	a.InjectBlock(0, blk) // second injection is a no-op
	net.Engine().Run()
	// b receives the block exactly once via push (a has one peer =>
	// sqrt(1)=1 push, no announcements).
	if !b.KnowsBlock(blk.Hash()) {
		t.Fatal("b missing block")
	}
}

func TestTxGossipReachesAll(t *testing.T) {
	net := newTestNetwork(t, 10)
	for i := 0; i < 60; i++ {
		addNode(t, net, geo.WesternEurope, 0)
	}
	if err := net.WireRandom(5); err != nil {
		t.Fatal(err)
	}
	tx := testTx(0)
	received := make(map[NodeID]bool)
	for _, n := range net.Nodes() {
		id := n.ID()
		n.SetObserver(func(_ sim.Time, _ NodeID, msg *Message) {
			if msg.Kind == MsgTransactions {
				received[id] = true
			}
		})
	}
	net.Nodes()[0].InjectTx(0, tx)
	net.Engine().Run()
	if len(received) < 59 {
		t.Fatalf("tx reached only %d nodes", len(received))
	}
}

func TestMessageSizes(t *testing.T) {
	blk := testBlock(1, "Ethermine")
	m := &Message{Kind: MsgNewBlock, Block: blk}
	if m.Size() <= blk.EncodedSize() {
		t.Fatal("block message must include overhead")
	}
	ann := &Message{Kind: MsgNewBlockHashes, Hashes: []types.Hash{blk.Hash()}}
	if ann.Size() >= m.Size() {
		t.Fatal("announcement must be smaller than full block")
	}
	get := &Message{Kind: MsgGetBlock, Want: blk.Hash()}
	if get.Size() <= 0 {
		t.Fatal("get size")
	}
	txm := &Message{Kind: MsgTransactions, Txs: []*types.Transaction{testTx(0), testTx(1)}}
	single := &Message{Kind: MsgTransactions, Txs: []*types.Transaction{testTx(0)}}
	if txm.Size() <= single.Size() {
		t.Fatal("tx batch size must grow")
	}
	if (&Message{Kind: MsgNewBlock}).Size() <= 0 {
		t.Fatal("nil block message still has frame size")
	}
	if (&Message{Kind: MsgKind(99)}).Size() <= 0 {
		t.Fatal("unknown kind still has frame size")
	}
}

func TestMsgKindString(t *testing.T) {
	kinds := map[MsgKind]string{
		MsgNewBlock:       "NewBlock",
		MsgNewBlockHashes: "NewBlockHashes",
		MsgGetBlock:       "GetBlock",
		MsgTransactions:   "Transactions",
		MsgKind(0):        "Unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d: %q", k, k.String())
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		net := newTestNetwork(t, 42)
		placement, err := geo.PlaceNodes(120, geo.DefaultNodeShare)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range placement {
			addNode(t, net, r, 0)
		}
		if err := net.WireRandom(6); err != nil {
			t.Fatal(err)
		}
		net.Nodes()[3].InjectBlock(0, testBlock(1, "Nanopool"))
		net.Engine().Run()
		return net.MessagesSent, net.BytesSent
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", m1, b1, m2, b2)
	}
}
