package relay_test

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// The protocol-conformance suite: every registered relay protocol
// runs through the same fixture network and must uphold the shared
// invariants —
//
//  1. liveness: every honest node eventually holds every block;
//  2. no duplicate fetches: a node never issues the same body/sketch/
//     missing-tx request twice for one block (duplicate *pushes* are
//     legitimate redundancy, the paper's Table II; duplicate pulls
//     would be protocol bugs);
//  3. accounting: per-class bandwidth counters and per-node egress
//     each sum exactly to Network.BytesSent (and ingress matches on a
//     healthy, fully drained network);
//  4. determinism: two fresh runs at the same seed produce identical
//     delivery traces and counters. (The -parallel 1 vs 8 gate for
//     relay campaigns lives in internal/experiments/golden_test.go,
//     which covers R1, R2 and relay-compare.json.)
//
// The transport is one piece of code on two lane layouts, so the lane
// layout is a fixture input and the suite runs on both.

// laneLayouts names the two layouts a network can be driven on.
var laneLayouts = []struct {
	name        string
	regionLanes bool
}{
	{"one-lane", false},
	{"region-lanes", true},
}

// fixtureResult is everything one conformance run produces.
type fixtureResult struct {
	net    *p2p.Network
	nodes  []*p2p.Node
	blocks []*types.Block
	// trace is the full delivery log: one line per observed message.
	trace []string
	// requests counts pull-request receptions per (requester, block,
	// kind) — the duplicate-fetch invariant's evidence.
	requests map[string]int
}

// runFixture builds a fresh overlay under the given protocol, gossips
// a transaction population, then injects a chain of blocks whose
// bodies overlap the gossiped pool, and drains the run: on a bare
// engine (the one-lane layout), or with region lanes under a conductor
// whose global lane carries the injections.
func runFixture(t *testing.T, cfg relay.Config, seed uint64, regionLanes bool) *fixtureResult {
	t.Helper()
	engine := sim.NewEngine()
	var cond *sim.Conductor
	if regionLanes {
		cond = sim.NewConductor(geo.NumRegions)
		engine = cond.Global()
	}
	rng := sim.NewRNG(seed)
	latency := geo.DefaultLatencyModel()
	net := p2p.NewNetwork(engine, rng.Fork("network"), latency)
	proto, err := relay.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.SetRelay(proto)

	res := &fixtureResult{net: net, requests: map[string]int{}}
	const nodeCount = 30
	regions := geo.Regions()
	for i := 0; i < nodeCount; i++ {
		n, err := net.AddNode(regions[i%len(regions)], 0)
		if err != nil {
			t.Fatal(err)
		}
		res.nodes = append(res.nodes, n)
	}
	if err := net.WireRandom(8); err != nil {
		t.Fatal(err)
	}
	if regionLanes {
		net.EnableSharding(cond, func() relay.Protocol { return relay.MustNew(cfg) })
	}
	for _, n := range res.nodes {
		n := n
		n.SetObserver(func(now sim.Time, from p2p.NodeID, msg *p2p.Message) {
			key := ""
			switch msg.Kind {
			case p2p.MsgNewBlock, p2p.MsgCompactBlock:
				key = fmt.Sprintf("%v|%d<-%d|%s|%s", now, n.ID(), from, msg.Kind, msg.Block.Hash())
			case p2p.MsgNewBlockHashes:
				key = fmt.Sprintf("%v|%d<-%d|%s|%s", now, n.ID(), from, msg.Kind, msg.Hashes[0])
			default:
				key = fmt.Sprintf("%v|%d<-%d|%s|%s", now, n.ID(), from, msg.Kind, msg.Want)
			}
			res.trace = append(res.trace, key)
			switch msg.Kind {
			case p2p.MsgGetBlock, p2p.MsgGetCompact, p2p.MsgGetBlockTxns:
				// The requester is `from`; this node is serving.
				res.requests[fmt.Sprintf("%d|%s|%s", from, msg.Want, msg.Kind)]++
			}
		})
	}

	// Gossip a transaction population so compact reconstruction has a
	// pool to draw from; txs 20..39 stay private (never gossiped), so
	// sketches miss them deterministically.
	var pool []*types.Transaction
	for i := 0; i < 40; i++ {
		tx := &types.Transaction{
			Sender:   types.AddressFromString(fmt.Sprintf("conf-sender-%d", i)),
			To:       types.AddressFromString("conf-recipient"),
			Nonce:    uint64(i),
			Value:    1,
			GasPrice: 1,
			Gas:      types.TxGas,
		}
		pool = append(pool, tx)
		if i < 20 {
			origin := res.nodes[i%len(res.nodes)]
			engine.Schedule(sim.Time(i), func(now sim.Time) { origin.InjectTx(now, tx) })
		}
	}

	// A short chain whose bodies mix gossiped and private txs: block k
	// carries four pool txs and (for odd k) two private ones.
	parent := types.Hash{}
	for k := 0; k < 6; k++ {
		txs := pool[(4*k)%20 : (4*k)%20+4]
		if k%2 == 1 {
			txs = append(append([]*types.Transaction(nil), txs...), pool[20+2*k], pool[21+2*k])
		}
		blk := types.NewBlock(types.Header{
			ParentHash: parent,
			Number:     uint64(k + 1),
			MinerLabel: "Conformance",
			TimeMillis: uint64(10_000 * (k + 1)),
			GasLimit:   8_000_000,
		}, txs, nil)
		parent = blk.Hash()
		res.blocks = append(res.blocks, blk)
		origin := res.nodes[(7*k)%len(res.nodes)]
		engine.Schedule(sim.Time(10_000*(k+1)), func(now sim.Time) { origin.InjectBlock(now, blk) })
	}

	if regionLanes {
		// One worker: the observers above share one trace, and a single
		// phase-B worker runs the lanes one after another.
		cond.Run(1)
	} else {
		engine.Run()
	}
	net.FoldLanes()
	return res
}

// conformanceSeed pins the fixture wiring. The legacy announce-only
// discipline (preserved byte-identically) runs a single sqrt-bounded
// announce wave per holder, so full coverage of a small fixture is
// probabilistic in the wiring; this seed gives every discipline full
// coverage on both lane layouts, making the liveness assertion exact rather than
// statistical. If a protocol change breaks it, rerun the suite across
// nearby seeds before concluding the invariant itself regressed.
const conformanceSeed = 28

// TestProtocolConformance runs every registered protocol through the
// fixture, on both lane layouts, and asserts the shared invariants.
func TestProtocolConformance(t *testing.T) {
	for _, mode := range relay.Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for _, lay := range laneLayouts {
				lay := lay
				t.Run(lay.name, func(t *testing.T) { checkConformance(t, mode, lay.regionLanes) })
			}
		})
	}
}

func checkConformance(t *testing.T, mode relay.Mode, regionLanes bool) {
	res := runFixture(t, relay.Config{Mode: mode}, conformanceSeed, regionLanes)

	// 1. Liveness: every node holds every block.
	for _, blk := range res.blocks {
		for _, n := range res.nodes {
			if !n.KnowsBlock(blk.Hash()) {
				t.Fatalf("node %d never received block %d under %s",
					n.ID(), blk.Header.Number, mode)
			}
		}
	}

	// 2. No duplicate fetches per (requester, block, kind).
	for key, count := range res.requests {
		if count > 1 {
			t.Errorf("duplicate request %s issued %d times under %s", key, count, mode)
		}
	}

	// 3. Accounting: class counters and per-node egress sum to
	// the transport totals; the drained healthy fixture also
	// delivers every counted byte.
	var classMsgs, classBytes uint64
	for _, ct := range res.net.ClassTotals() {
		classMsgs += ct.Messages
		classBytes += ct.Bytes
	}
	if classMsgs != res.net.MessagesSent || classBytes != res.net.BytesSent {
		t.Errorf("class totals %d msgs/%d bytes, want %d/%d",
			classMsgs, classBytes, res.net.MessagesSent, res.net.BytesSent)
	}
	var egress, ingress uint64
	for _, n := range res.nodes {
		egress += n.BytesOut()
		ingress += n.BytesIn()
	}
	if egress != res.net.BytesSent {
		t.Errorf("egress sum %d, want BytesSent %d", egress, res.net.BytesSent)
	}
	if ingress != res.net.BytesSent {
		t.Errorf("ingress sum %d, want BytesSent %d on a drained healthy network", ingress, res.net.BytesSent)
	}
	if res.net.MessagesDropped != 0 {
		t.Errorf("healthy fixture dropped %d messages", res.net.MessagesDropped)
	}

	// The compact discipline must actually exercise its
	// reconstruction paths on this fixture (pool hits and the
	// private-tx round trips/fallbacks).
	ctr := res.net.Relay().Counters()
	if mode == relay.Compact {
		if ctr.ReconstructFull == 0 {
			t.Error("compact fixture produced no full reconstructions")
		}
		if ctr.ReconstructPartial+ctr.ReconstructFallback == 0 {
			t.Error("compact fixture never exercised missing-tx handling")
		}
	} else if ctr.Attempts() != 0 || ctr.SketchesSent != 0 {
		t.Errorf("%s reported sketch activity: %+v", mode, *ctr)
	}

	// 4. Determinism: a fresh run at the same seed replays the
	// exact delivery trace.
	again := runFixture(t, relay.Config{Mode: mode}, conformanceSeed, regionLanes)
	if len(again.trace) != len(res.trace) {
		t.Fatalf("rerun trace length %d, want %d", len(again.trace), len(res.trace))
	}
	for i := range res.trace {
		if res.trace[i] != again.trace[i] {
			t.Fatalf("trace diverges at %d: %s vs %s", i, res.trace[i], again.trace[i])
		}
	}
	if again.net.BytesSent != res.net.BytesSent {
		t.Fatalf("rerun bytes %d, want %d", again.net.BytesSent, res.net.BytesSent)
	}
}

// TestHybridPushFraction checks the hybrid knob actually moves the
// full-body/announce split: a higher fraction pushes more bodies.
func TestHybridPushFraction(t *testing.T) {
	bodies := func(fraction float64) uint64 {
		res := runFixture(t, relay.Config{Mode: relay.Hybrid, PushFraction: fraction}, 77, false)
		for _, ct := range res.net.ClassTotals() {
			if ct.Kind == p2p.MsgNewBlock {
				return ct.Messages
			}
		}
		return 0
	}
	low, high := bodies(0.1), bodies(0.9)
	if high <= low {
		t.Fatalf("push fraction 0.9 sent %d bodies, 0.1 sent %d — knob has no effect", high, low)
	}
}

// TestCompactFallbackThreshold checks the fallback knob: a threshold
// of ~0 turns every miss into a full-body fetch, eliminating
// missing-tx round trips.
func TestCompactFallbackThreshold(t *testing.T) {
	res := runFixture(t, relay.Config{Mode: relay.Compact, FallbackThreshold: 0.001}, 99, false)
	ctr := res.net.Relay().Counters()
	if ctr.ReconstructPartial != 0 {
		t.Fatalf("threshold 0.001 still ran %d missing-tx round trips", ctr.ReconstructPartial)
	}
	if ctr.ReconstructFallback == 0 {
		t.Fatal("threshold 0.001 produced no fallbacks on the divergent fixture")
	}
}
