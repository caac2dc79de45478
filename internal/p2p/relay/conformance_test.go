package relay_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
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
//  1. liveness: under push-all and hybrid every node holds every
//     block at every seed of a fixed range; the sqrt-bounded
//     disciplines can strand a node on a small overlay, so for them
//     the share of seeds that strand one is held to what it was
//     (TestProtocolLiveness);
//  2. no duplicate fetches: a node never issues the same body/sketch/
//     missing-tx request twice for one block (duplicate *pushes* are
//     legitimate redundancy, the paper's Table II; duplicate pulls
//     would be protocol bugs);
//  3. accounting: per-class bandwidth counters and per-node egress
//     each sum exactly to Network.BytesSent (and ingress matches on a
//     healthy, fully drained network);
//  4. determinism: two fresh runs at the same seed produce identical
//     delivery traces and counters, and that run's digest — trace,
//     class totals and relay counters — matches the value pinned in
//     conformancePins, so behaviour is held across commits, not only
//     across reruns. (The -parallel 1 vs 8 gate for relay campaigns
//     lives in internal/experiments/golden_test.go, which covers R1,
//     R2 and relay-compare.json.)
//
// The transport's region lanes run on one engine (the serial loop of
// -shards 0) or each on its own conductor lane, to the same schedule,
// so the scheduler is a fixture input, the suite runs on both, and
// both must reproduce one pinned digest per discipline.

// laneLayouts names the two schedulers a network can be driven by.
var laneLayouts = []struct {
	name      string
	conductor bool
}{
	{"one-engine", false},
	{"region-lanes", true},
}

// fixtureResult is everything one conformance run produces.
type fixtureResult struct {
	net    *p2p.Network
	nodes  []*p2p.Node
	blocks []*types.Block
	// trace is the full delivery log: one line per observed message,
	// node by node in node order, each node's in delivery order — the
	// order a node sees its messages in is the schedule's, while the
	// interleaving of different nodes' deliveries is the scheduler's.
	trace []string
	// requests counts pull-request receptions per (requester, block,
	// kind) — the duplicate-fetch invariant's evidence.
	requests map[string]int
}

// runFixture builds a fresh overlay under the given protocol, gossips
// a transaction population, then injects a chain of blocks whose
// bodies overlap the gossiped pool, and drains the run. A global engine
// carries the injections: beside the lanes' shared engine under
// sim.RunSerial, or as the global lane of a conductor.
func runFixture(t *testing.T, cfg relay.Config, seed uint64, conductor bool) *fixtureResult {
	t.Helper()
	return fixture(t, cfg, seed, conductor, true)
}

// fixture is runFixture with the delivery trace optional: a run that
// only asks who holds what skips the observers.
func fixture(t *testing.T, cfg relay.Config, seed uint64, conductor, observe bool) *fixtureResult {
	t.Helper()
	engine, lanes := sim.NewEngine(), sim.NewEngine()
	var cond *sim.Conductor
	if conductor {
		cond = sim.NewConductor(geo.NumRegions)
		engine = cond.Global()
		lanes = engine
	}
	rng := sim.NewRNG(seed)
	latency := geo.DefaultLatencyModel()
	net := p2p.NewNetwork(lanes, rng.Fork("network"), latency)
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
	if conductor {
		net.EnableSharding(cond)
	}
	traces := make([][]string, len(res.nodes))
	if observe {
		for k, n := range res.nodes {
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
				traces[k] = append(traces[k], key)
				switch msg.Kind {
				case p2p.MsgGetBlock, p2p.MsgGetCompact, p2p.MsgGetBlockTxns:
					// The requester is `from`; this node is serving.
					res.requests[fmt.Sprintf("%d|%s|%s", from, msg.Want, msg.Kind)]++
				}
			})
		}
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

	if conductor {
		// One worker: the observers above share the requests map, and a
		// single phase-B worker runs the lanes one after another.
		cond.Run(1)
	} else {
		sim.RunSerial(engine, lanes)
	}
	for _, tr := range traces {
		res.trace = append(res.trace, tr...)
	}
	net.FoldLanes()
	return res
}

// conformanceSeed is the fixture seed of the determinism and digest
// pins. Liveness is not asserted at it: TestProtocolLiveness sweeps a
// seed range instead.
const conformanceSeed = 28

// TestProtocolConformance runs every registered protocol through the
// fixture, on both schedulers, and asserts the shared invariants.
func TestProtocolConformance(t *testing.T) {
	for _, mode := range relay.Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for _, lay := range laneLayouts {
				lay := lay
				t.Run(lay.name, func(t *testing.T) { checkConformance(t, mode, lay.conductor) })
			}
		})
	}
}

func checkConformance(t *testing.T, mode relay.Mode, conductor bool) {
	res := runFixture(t, relay.Config{Mode: mode}, conformanceSeed, conductor)

	// 1. Liveness, where it holds at every seed (TestProtocolLiveness
	// has the rest).
	if _, probabilistic := strandedAtModel2[mode.String()]; !probabilistic {
		if miss := res.stranded(); miss != "" {
			t.Fatalf("%s under %s", miss, mode)
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
	ctr := res.net.RelayCounters
	// Every sketch on the wire — pushed or served — is counted once,
	// so the counter equals the CompactBlock class (zero for the
	// disciplines without sketches).
	if sketches := classMessages(res.net, p2p.MsgCompactBlock); ctr.SketchesSent != sketches {
		t.Errorf("SketchesSent %d, want the CompactBlock class count %d", ctr.SketchesSent, sketches)
	}
	if mode == relay.Compact {
		if ctr.ReconstructFull == 0 {
			t.Error("compact fixture produced no full reconstructions")
		}
		if ctr.ReconstructPartial+ctr.ReconstructFallback == 0 {
			t.Error("compact fixture never exercised missing-tx handling")
		}
	} else if ctr.Attempts() != 0 || ctr.SketchesSent != 0 {
		t.Errorf("%s reported sketch activity: %+v", mode, ctr)
	}

	// 4. Determinism: a fresh run at the same seed replays the
	// exact delivery trace.
	again := runFixture(t, relay.Config{Mode: mode}, conformanceSeed, conductor)
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
	if got, want := res.digest(), conformancePins[mode.String()]; got != want {
		t.Errorf("fixture digest %s, pinned %s: the discipline's sends, their times or its counters changed", got, want)
	}
}

// The seed range TestProtocolLiveness sweeps: livenessSeeds seeds from
// firstLivenessSeed on. Stranding is a rare event for sqrt-push and
// compact (about 2% of seeds), so the range must be long for three
// standard deviations to be a tight bound: over seeds 1..400 their
// model-2 counts were 6 and 10, and a 400-seed window cannot tell a
// rate of 1.5% from one of 3.5%.
const (
	firstLivenessSeed = 1000
	livenessSeeds     = 2000
)

// strandedAtModel2 is, per discipline whose liveness is probabilistic,
// the number of seeds in the liveness range at which the fixture left
// at least one node without some block under latency model version 2.
// The announce waves are sqrt-bounded, so every wave can skip a node;
// announce-only has no full-body push to make up for it. push-all and
// hybrid stranded none.
var strandedAtModel2 = map[string]int{
	"sqrt-push":     39,
	"announce-only": 1581,
	"compact":       32,
}

// TestProtocolLiveness is invariant 1. Every discipline runs the
// fixture at every seed of the liveness range on the serial loop (the
// conductor runs the same schedule). push-all and hybrid must deliver
// every block to every node at every seed. A sqrt-bounded discipline
// may strand a node, but its stranded-seed count must stay within
// three binomial standard deviations above its model-2 count: a relay
// or latency change that makes stranding likelier fails here,
// whichever seed the determinism pins use.
func TestProtocolLiveness(t *testing.T) {
	for _, mode := range relay.Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			stranded, first := 0, ""
			for seed := uint64(firstLivenessSeed); seed < firstLivenessSeed+livenessSeeds; seed++ {
				if miss := fixture(t, relay.Config{Mode: mode}, seed, false, false).stranded(); miss != "" {
					if stranded == 0 {
						first = fmt.Sprintf("seed %d: %s", seed, miss)
					}
					stranded++
				}
			}
			base, probabilistic := strandedAtModel2[mode.String()]
			if !probabilistic {
				if stranded > 0 {
					t.Fatalf("%d of %d seeds strand a node under %s; first %s", stranded, livenessSeeds, mode, first)
				}
				return
			}
			p := float64(base) / livenessSeeds
			limit := float64(base) + 3*math.Sqrt(livenessSeeds*p*(1-p))
			if float64(stranded) > limit {
				t.Fatalf("%d of %d seeds strand a node under %s, limit %.1f (model 2: %d); first %s",
					stranded, livenessSeeds, mode, limit, base, first)
			}
			t.Logf("%d of %d seeds strand a node (model 2: %d, limit %.1f)", stranded, livenessSeeds, base, limit)
		})
	}
}

// stranded names the first (node, block) pair the run never delivered,
// or returns "" when every node holds every block.
func (r *fixtureResult) stranded() string {
	for _, blk := range r.blocks {
		for _, n := range r.nodes {
			if !n.KnowsBlock(blk.Hash()) {
				return fmt.Sprintf("node %d never received block %d", n.ID(), blk.Header.Number)
			}
		}
	}
	return ""
}

// conformancePins is the SHA-256 of each discipline's fixture run
// (fixtureResult.digest), one per discipline: the serial loop and the
// conductor run the region lanes to one schedule. Recorded under
// latency model version 3.
var conformancePins = map[string]string{
	"sqrt-push":     "2b4eb182b27b83c58b87a436d3782f507b3ee8c9c816deb31c9bda0de793abfd",
	"push-all":      "610ab325e335288e1c3495618ec99b99062533878da9c340546fb2e54358b46d",
	"announce-only": "b186d86e3735a669ad3c2d38ce926b800daecd565b25137d9e35fddb8df35d8a",
	"compact":       "84d3760ab5319c11892b0c29aaf82f75a01e94b5b036c9f80a72ee369f2acabc",
	"hybrid":        "c1f27b60efbfede41d1cbd1a291bd35ea5a773d626e448534ef7029108ec1e7e",
}

// digest hashes the run's delivery trace, its per-class transport
// totals and its relay counters.
func (r *fixtureResult) digest() string {
	h := sha256.New()
	for _, line := range r.trace {
		fmt.Fprintln(h, line)
	}
	for _, ct := range r.net.ClassTotals() {
		fmt.Fprintln(h, ct.Kind, ct.Messages, ct.Bytes)
	}
	c := r.net.RelayCounters
	fmt.Fprintln(h, c.SketchesSent, c.ReconstructFull, c.ReconstructPartial, c.ReconstructFallback, c.MissingTxs, c.MissingTxBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// classMessages returns the message count of one class.
func classMessages(net *p2p.Network, kind p2p.MsgKind) uint64 {
	for _, ct := range net.ClassTotals() {
		if ct.Kind == kind {
			return ct.Messages
		}
	}
	return 0
}

// TestHybridPushFraction checks the hybrid knob actually moves the
// full-body/announce split: a higher fraction pushes more bodies.
func TestHybridPushFraction(t *testing.T) {
	bodies := func(fraction float64) uint64 {
		res := runFixture(t, relay.Config{Mode: relay.Hybrid, PushFraction: fraction}, 77, false)
		return classMessages(res.net, p2p.MsgNewBlock)
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
	ctr := res.net.RelayCounters
	if ctr.ReconstructPartial != 0 {
		t.Fatalf("threshold 0.001 still ran %d missing-tx round trips", ctr.ReconstructPartial)
	}
	if ctr.ReconstructFallback == 0 {
		t.Fatal("threshold 0.001 produced no fallbacks on the divergent fixture")
	}
}
