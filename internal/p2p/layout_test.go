package p2p

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// The scheduler is a test input: the transport's region lanes run on
// one engine beside the fixture's own (the serial loop of -shards 0),
// or each on its own conductor lane, and every transport-level
// invariant below runs on both.
var laneLayouts = []struct {
	name      string
	conductor bool
}{
	{"one-engine", false},
	{"region-lanes", true},
}

// layoutFixture is a network together with the scheduler that drives
// it. global carries the fixture's own scheduled events (injections,
// crashes): a second engine run beside the lanes' by sim.RunSerial, or
// the conductor's global lane.
type layoutFixture struct {
	net    *Network
	global *sim.Engine
	cond   *sim.Conductor // nil when the lanes share one engine
}

// newLayoutFixture returns an empty default-latency network under the
// given relay discipline. Add and wire nodes, then call start.
func newLayoutFixture(t testing.TB, conductor bool, seed uint64, mode relay.Mode) *layoutFixture {
	t.Helper()
	f := &layoutFixture{global: sim.NewEngine()}
	lanes := sim.NewEngine()
	if conductor {
		f.cond = sim.NewConductor(geo.NumRegions)
		f.global = f.cond.Global()
		lanes = f.global
	}
	f.net = NewNetwork(lanes, sim.NewRNG(seed).Fork("network"), geo.DefaultLatencyModel())
	f.net.SetRelay(relay.MustNew(relay.Config{Mode: mode}))
	return f
}

// addSpread adds n unlimited-peer nodes round-robin over every region,
// so traffic between them crosses lanes constantly.
func (f *layoutFixture) addSpread(t testing.TB, n int) []*Node {
	t.Helper()
	regions := geo.Regions()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := f.net.AddNode(regions[i%len(regions)], 0)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes
}

// start ends the build phase. On a conductor it installs the lanes with
// per-pair lookahead bounds from the latency model, as core wires them,
// so the topology-aware deadline path and its pair-window accounting
// are what runs.
func (f *layoutFixture) start(t testing.TB) {
	t.Helper()
	if f.cond == nil {
		return
	}
	model := geo.DefaultLatencyModel()
	regions := geo.Regions()
	bounds := make([][]sim.Time, len(regions))
	for i, from := range regions {
		bounds[i] = make([]sim.Time, len(regions))
		for j, to := range regions {
			d, err := model.MinPairDelay(from, to)
			if err != nil {
				t.Fatal(err)
			}
			bounds[i][j] = d
		}
	}
	f.cond.SetBounds(bounds)
	f.net.EnableSharding(f.cond)
}

// run drains the scheduler. It does not fold lane counters.
func (f *layoutFixture) run(workers int) {
	if f.cond != nil {
		f.cond.Run(workers)
		return
	}
	sim.RunSerial(f.global, f.net.Engine())
}

// now is the time to stamp the next injection with.
func (f *layoutFixture) now() sim.Time {
	if f.cond != nil {
		return f.cond.Now()
	}
	return max(f.global.Now(), f.net.Engine().Now())
}

// chainOf builds a linked chain of empty blocks.
func chainOf(total int) []*types.Block {
	parent := types.Hash{}
	blocks := make([]*types.Block, 0, total)
	for k := 0; k < total; k++ {
		blk := types.NewBlock(types.Header{
			ParentHash: parent,
			Number:     uint64(k + 1),
			MinerLabel: "Layout",
			TimeMillis: uint64(k),
			GasLimit:   8_000_000,
		}, nil, nil)
		parent = blk.Hash()
		blocks = append(blocks, blk)
	}
	return blocks
}

// inFlightTo counts deliveries scheduled or buffered for node n. Call
// it only while every lane is idle.
func (f *layoutFixture) inFlightTo(n *Node) int {
	c := 0
	for _, ln := range f.net.all {
		for _, f := range slabRecords(&ln.flights) {
			if f.kind != 0 && f.to == n.idx() {
				c++
			}
		}
		for _, out := range ln.cross {
			for _, cm := range out {
				if cm.f.to == n.idx() {
					c++
				}
			}
		}
	}
	return c
}

// TestTransportConservation crashes a node mid-spread, so both drop
// points fire, and checks that every counted send is accounted for
// exactly once on each side. MessagesSent counts sends that left the
// sender (send-time drops return before it), so
//
//	Σ node.MessagesOut                  == MessagesSent
//	Σ node.MessagesIn + in-flight drops == MessagesSent
//
// where the in-flight drops are counted independently — the deliveries
// addressed to the victim at the instant it crashes — and whatever else
// MessagesDropped holds is send-time drops.
//
// The crash instant comes from the fixture's own run: a probe run
// without the crash finds the first delivery to the victim, and the
// crash lands 1 ms before it arrives. Every delay is at least the
// pair's MinPairDelay, at least 2 ms, so that delivery left its sender
// before the crash and is on the wire when it fires, whatever the
// latency model draws.
func TestTransportConservation(t *testing.T) {
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			type fixture struct {
				*layoutFixture
				nodes  []*Node
				victim *Node
			}
			blocks := chainOf(3)
			build := func() fixture {
				f := newLayoutFixture(t, lay.conductor, 9, relay.SqrtPush)
				nodes := f.addSpread(t, 30)
				if err := f.net.WireRandom(6); err != nil {
					t.Fatal(err)
				}
				victim := nodes[17]
				if err := f.net.ConnectSample(victim, 20); err != nil {
					t.Fatal(err)
				}
				f.start(t)
				// The fixture's global engine carries the injections;
				// the later blocks run into the hole the crash leaves.
				f.global.Schedule(0, func(now sim.Time) { nodes[0].InjectBlock(now, blocks[0]) })
				f.global.Schedule(10_000, func(now sim.Time) { nodes[3].InjectBlock(now, blocks[1]) })
				f.global.Schedule(20_000, func(now sim.Time) { nodes[4].InjectBlock(now, blocks[2]) })
				return fixture{f, nodes, victim}
			}

			probe := build()
			arrival, from := sim.Time(-1), NodeID(0)
			probe.victim.SetObserver(func(now sim.Time, sender NodeID, _ *Message) {
				if arrival < 0 {
					arrival, from = now, sender
				}
			})
			probe.run(2)
			if arrival < 0 {
				t.Fatal("the probe run delivered nothing to the victim")
			}
			sender, err := probe.net.Node(from)
			if err != nil {
				t.Fatal(err)
			}
			if floor, _ := geo.DefaultLatencyModel().MinPairDelay(sender.Region(), probe.victim.Region()); floor < 2 {
				t.Fatalf("MinPairDelay(%v, %v) = %v: 1 ms before arrival may precede the send", sender.Region(), probe.victim.Region(), floor)
			}
			crashAt := arrival - 1

			// Crash the victim from the global engine (every lane idle)
			// while that first delivery is on the wire to it.
			f := build()
			inFlight := 0
			f.global.Schedule(crashAt, func(sim.Time) {
				inFlight = f.inFlightTo(f.victim)
				f.net.CrashNode(f.victim)
			})
			f.run(2)
			f.net.FoldLanes()

			if inFlight == 0 {
				t.Fatal("nothing was in flight to the victim; the test is vacuous")
			}
			var out, in uint64
			for _, n := range f.nodes {
				out += n.MessagesOut()
				in += n.MessagesIn()
			}
			sent, dropped := f.net.MessagesSent, f.net.MessagesDropped
			if out != sent {
				t.Errorf("Σ MessagesOut = %d, want MessagesSent %d", out, sent)
			}
			if in+uint64(inFlight) != sent {
				t.Errorf("Σ MessagesIn %d + in-flight drops %d = %d, want MessagesSent %d",
					in, inFlight, in+uint64(inFlight), sent)
			}
			if dropped < uint64(inFlight) {
				t.Errorf("MessagesDropped %d < in-flight drops %d", dropped, inFlight)
			}
			t.Logf("crash at %v, sent %d, in-flight drops %d, send-time drops %d", crashAt, sent, inFlight, dropped-uint64(inFlight))
		})
	}
}

// TestFoldLanesIdempotent is the regression test for the lane→network
// counter fold: it used to add without clearing, so a second call
// double-counted. The fold moves counts, so however often it runs the
// public surface — relay counters included — equals the sum the lanes
// held before the first fold.
func TestFoldLanesIdempotent(t *testing.T) {
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newLayoutFixture(t, lay.conductor, 7, relay.Compact)
			nodes := f.addSpread(t, 30)
			if err := f.net.WireRandom(6); err != nil {
				t.Fatal(err)
			}
			f.start(t)
			for i, blk := range chainOf(8) {
				nodes[(7*i)%len(nodes)].InjectBlock(f.now(), blk)
				f.run(2)
			}
			// Lanes sharing one engine share one counter block.
			var want transportCounters
			seen := map[*transportCounters]bool{}
			for _, ln := range f.net.all {
				if !seen[ln.ctr] {
					seen[ln.ctr] = true
					c := *ln.ctr
					c.moveInto(&want)
				}
			}
			if want.MessagesSent == 0 || want.RelayCounters.SketchesSent == 0 {
				t.Fatalf("fixture too quiet: %d sends, %d sketches", want.MessagesSent, want.RelayCounters.SketchesSent)
			}
			for round := 1; round <= 2; round++ {
				f.net.FoldLanes()
				if f.net.transportCounters != want {
					t.Fatalf("after fold %d: totals %+v, want %+v", round, f.net.transportCounters, want)
				}
			}
		})
	}
}
