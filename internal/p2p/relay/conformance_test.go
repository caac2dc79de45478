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
//  1. liveness: under sqrt-push, compact, push-all and hybrid a block
//     with a child reaches every node but the child's miner at every
//     seed of a fixed range — the catch-up fetch pulls what a wave
//     skipped — and under push-all and hybrid every block reaches
//     every node; what the sqrt-bounded waves leave stranded beyond
//     that is held to the share of seeds it was (TestProtocolLiveness);
//  2. no duplicate fetches: a node never issues the same body/sketch/
//     missing-tx request twice for one block (duplicate *pushes* are
//     legitimate redundancy, the paper's Table II; duplicate pulls
//     would be protocol bugs), at every seed of the liveness range;
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
	// origins[k] is the node blocks[k] is injected at, its miner.
	origins []*p2p.Node
	// trace is the full delivery log: one line per observed message,
	// node by node in node order, each node's in delivery order — the
	// order a node sees its messages in is the schedule's, while the
	// interleaving of different nodes' deliveries is the scheduler's.
	trace []string
	// requests counts pull-request receptions per (requester, block,
	// kind) — the duplicate-fetch invariant's evidence.
	requests map[fetch]int
}

// fetch is one pull request: who asked, for which block, of what kind.
type fetch struct {
	from p2p.NodeID
	want types.Hash
	kind p2p.MsgKind
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
// does not pin it records only the pull requests.
func fixture(t *testing.T, cfg relay.Config, seed uint64, conductor, trace bool) *fixtureResult {
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

	res := &fixtureResult{net: net, requests: map[fetch]int{}}
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
	for k, n := range res.nodes {
		n := n
		n.SetObserver(func(now sim.Time, from p2p.NodeID, msg *p2p.Message) {
			switch msg.Kind {
			case p2p.MsgGetBlock, p2p.MsgGetCompact, p2p.MsgGetBlockTxns:
				// The requester is `from`; this node is serving.
				res.requests[fetch{from, msg.Want, msg.Kind}]++
			}
			if !trace {
				return
			}
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
		res.origins = append(res.origins, origin)
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
	base := strandedAtModel4[mode.String()]
	if miss, gap := res.stranded(); miss != "" && (base.anyBlock == 0 || gap && base.ancestry == 0) {
		t.Fatalf("%s under %s", miss, mode)
	}

	// 2. No duplicate fetches per (requester, block, kind).
	if dup := res.duplicateFetch(); dup != "" {
		t.Errorf("%s under %s", dup, mode)
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
// compact (about 2% of seeds at model 2), so the range must be long
// for three standard deviations to be a tight bound: over seeds 1..400
// their model-2 counts were 6 and 10, and a 400-seed window cannot
// tell a rate of 1.5% from one of 3.5%.
const (
	firstLivenessSeed = 1000
	livenessSeeds     = 2000
)

// strandedAtModel4 is, per discipline, the number of seeds in the
// liveness range at which the fixture left some node without some
// block (anyBlock), and without a block whose child that node did not mine
// (ancestry), under model version 4. A zero count is exact: no seed
// may strand. The announce waves are sqrt-bounded, so a wave can skip
// a node; the catch-up fetch then pulls the block when its child
// arrives, which leaves two strandable blocks: the final one, which has
// no child, and one whose child the node mined itself — the fixture's
// miners inject on a schedule, not on their own head, and an injection
// has no sender to pull from. Under announce-only, which pushes no
// full body, a child can miss a node too. push-all and hybrid strand
// nothing. A discipline not listed strands nothing.
var strandedAtModel4 = map[string]struct{ anyBlock, ancestry int }{
	"sqrt-push":     {anyBlock: 7},
	"announce-only": {anyBlock: 559, ancestry: 24},
	"compact":       {anyBlock: 6},
}

// TestProtocolLiveness is invariant 1, and invariant 2 at every seed.
// Every discipline runs the fixture at every seed of the liveness
// range on the serial loop (the conductor runs the same schedule),
// recording only the pull requests. A count strandedAtModel4 pins at
// zero must stay zero; any other must stay within three binomial
// standard deviations above its model-4 value: a relay or latency
// change that makes stranding likelier fails here, whichever seed the
// determinism pins use. No seed may issue a duplicate fetch.
func TestProtocolLiveness(t *testing.T) {
	for _, mode := range relay.Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			var anyBlock, ancestry stranded
			for seed := uint64(firstLivenessSeed); seed < firstLivenessSeed+livenessSeeds; seed++ {
				res := fixture(t, relay.Config{Mode: mode}, seed, false, false)
				if dup := res.duplicateFetch(); dup != "" {
					t.Fatalf("seed %d: %s under %s", seed, dup, mode)
				}
				if miss, gap := res.stranded(); miss != "" {
					anyBlock.add(seed, miss)
					if gap {
						ancestry.add(seed, miss)
					}
				}
			}
			base := strandedAtModel4[mode.String()]
			anyBlock.check(t, mode, "any block", base.anyBlock)
			ancestry.check(t, mode, "a block whose child it did not mine", base.ancestry)
		})
	}
}

// stranded tallies the seeds of a liveness sweep that strand a node.
type stranded struct {
	seeds int
	first string
}

func (s *stranded) add(seed uint64, miss string) {
	if s.seeds == 0 {
		s.first = fmt.Sprintf("seed %d: %s", seed, miss)
	}
	s.seeds++
}

// check holds the tally to its model-4 count base: exactly zero when
// base is, else within three binomial standard deviations above it.
func (s *stranded) check(t *testing.T, mode relay.Mode, what string, base int) {
	t.Helper()
	if base == 0 {
		if s.seeds > 0 {
			t.Fatalf("%d of %d seeds strand %s under %s; first %s", s.seeds, livenessSeeds, what, mode, s.first)
		}
		return
	}
	p := float64(base) / livenessSeeds
	limit := float64(base) + 3*math.Sqrt(livenessSeeds*p*(1-p))
	if float64(s.seeds) > limit {
		t.Fatalf("%d of %d seeds strand %s under %s, limit %.1f (model 4: %d); first %s",
			s.seeds, livenessSeeds, what, mode, limit, base, s.first)
	}
	t.Logf("%d of %d seeds strand %s (model 4: %d, limit %.1f)", s.seeds, livenessSeeds, what, base, limit)
}

// stranded names the first (node, block) pair the run never delivered,
// or returns "" when every node holds every block; gap reports whether
// some node lacks a block that has a child the node did not mine.
func (r *fixtureResult) stranded() (miss string, gap bool) {
	for k, blk := range r.blocks {
		for _, n := range r.nodes {
			if n.KnowsBlock(blk.Hash()) {
				continue
			}
			if k+1 < len(r.blocks) && r.origins[k+1] != n {
				return fmt.Sprintf("node %d never received block %d", n.ID(), blk.Header.Number), true
			}
			if miss == "" {
				miss = fmt.Sprintf("node %d never received block %d", n.ID(), blk.Header.Number)
			}
		}
	}
	return miss, false
}

// duplicateFetch names a pull request the run issued more than once,
// or returns "".
func (r *fixtureResult) duplicateFetch() string {
	for key, count := range r.requests {
		if count > 1 {
			return fmt.Sprintf("node %d issued %s for %s %d times", key.from, key.kind, key.want, count)
		}
	}
	return ""
}

// conformancePins is the SHA-256 of each discipline's fixture run
// (fixtureResult.digest), one per discipline: the serial loop and the
// conductor run the region lanes to one schedule. Recorded under
// model version 4.
var conformancePins = map[string]string{
	"sqrt-push":     "9c340a4f5ff71431c0838e5809aeaea0dc347565ca3410ab27fe4f9965a8a7cd",
	"push-all":      "11edd46106c4ded3767e5a5830705a98bdf6c58c2018b30226aa38d427b33edd",
	"announce-only": "73afa61832d5cc1ff404053b79369a1bd6551a9ae82f40e9504630c50fddb8ee",
	"compact":       "bbc83825323dbca8c1ccb7225a9a87a36b5838d19aae8190f74ccfdf6b49836a",
	"hybrid":        "f7ec4eacfb19f64f8986153d5e65d1c57e790143cbdef9496e08a2be65d51e12",
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
	fmt.Fprintln(h, c.SketchesSent, c.ReconstructFull, c.ReconstructPartial, c.ReconstructFallback, c.MissingTxs, c.MissingTxBytes, c.ParentPulls)
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
