package p2p

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

// The lane layout is a test input: the transport is one piece of code,
// so every transport-level invariant below runs over both layouts it
// can be driven on.
var laneLayouts = []struct {
	name        string
	regionLanes bool
}{
	{"one-lane", false},
	{"region-lanes", true},
}

// layoutFixture is a network on one of the two lane layouts together
// with the scheduler that drives it: a bare engine for the home lane, a
// conductor for the region lanes.
type layoutFixture struct {
	net  *Network
	cond *sim.Conductor // nil on the one-lane layout
	mode relay.Mode
}

// newLayoutFixture returns an empty default-latency network under the
// given relay discipline. Add and wire nodes, then call start.
func newLayoutFixture(t testing.TB, regionLanes bool, seed uint64, mode relay.Mode) *layoutFixture {
	t.Helper()
	f := &layoutFixture{mode: mode}
	engine := sim.NewEngine()
	if regionLanes {
		f.cond = sim.NewConductor(geo.NumRegions)
		engine = f.cond.Global()
	}
	f.net = NewNetwork(engine, sim.NewRNG(seed).Fork("network"), geo.DefaultLatencyModel())
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

// start ends the build phase. On the region-lane layout it installs the
// lanes with per-pair lookahead bounds from the latency model, as core
// wires them, so the topology-aware deadline path and its pair-window
// accounting are what runs.
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
	f.net.EnableSharding(f.cond, func() relay.Protocol {
		return relay.MustNew(relay.Config{Mode: f.mode})
	})
}

// run drains the layout's scheduler. It does not fold lane counters.
func (f *layoutFixture) run(workers int) {
	if f.cond != nil {
		f.cond.Run(workers)
		return
	}
	f.net.Engine().Run()
}

// now is the time to stamp the next injection with.
func (f *layoutFixture) now() sim.Time {
	if f.cond != nil {
		return f.cond.Now()
	}
	return f.net.Engine().Now()
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
		for _, f := range ln.flights {
			if f.kind != 0 && f.to == n.idx() {
				c++
			}
		}
		for _, cm := range ln.cross {
			if cm.f.to == n.idx() {
				c++
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
func TestTransportConservation(t *testing.T) {
	const crashAt = 120 * sim.Millisecond
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newLayoutFixture(t, lay.regionLanes, 9, relay.SqrtPush)
			nodes := f.addSpread(t, 30)
			if err := f.net.WireRandom(6); err != nil {
				t.Fatal(err)
			}
			victim := nodes[17]
			if err := f.net.ConnectSample(victim, 20); err != nil {
				t.Fatal(err)
			}
			f.start(t)
			// Crash the victim from the scheduler's own engine (phase A
			// on region lanes: every lane idle) while the first spread
			// still has traffic on the wire to it; the later blocks run
			// into the hole it leaves.
			blocks := chainOf(3)
			inFlight := 0
			engine := f.net.Engine()
			engine.Schedule(0, func(now sim.Time) { nodes[0].InjectBlock(now, blocks[0]) })
			engine.Schedule(crashAt, func(sim.Time) {
				inFlight = f.inFlightTo(victim)
				f.net.CrashNode(victim)
			})
			engine.Schedule(10_000, func(now sim.Time) { nodes[3].InjectBlock(now, blocks[1]) })
			engine.Schedule(20_000, func(now sim.Time) { nodes[4].InjectBlock(now, blocks[2]) })
			f.run(2)
			f.net.FoldLanes()

			if inFlight == 0 {
				t.Fatal("nothing was in flight to the victim; the test is vacuous")
			}
			var out, in uint64
			for _, n := range nodes {
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
			t.Logf("sent %d, in-flight drops %d, send-time drops %d", sent, inFlight, dropped-uint64(inFlight))
		})
	}
}

// TestFoldLanesIdempotent is the regression test for the lane→network
// counter fold: it used to add without clearing, so a second call
// double-counted. The fold moves counts, so however often it runs the
// public surface equals the sum the lanes held before the first fold.
func TestFoldLanesIdempotent(t *testing.T) {
	for _, lay := range laneLayouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newLayoutFixture(t, lay.regionLanes, 7, relay.Compact)
			nodes := f.addSpread(t, 30)
			if err := f.net.WireRandom(6); err != nil {
				t.Fatal(err)
			}
			f.start(t)
			for i, blk := range chainOf(8) {
				nodes[(7*i)%len(nodes)].InjectBlock(f.now(), blk)
				f.run(2)
			}
			var want transportCounters
			var wantProto relay.Counters
			for _, ln := range f.net.all {
				c := *ln.ctr
				c.moveInto(&want)
				wantProto.Add(*ln.proto.Counters())
			}
			if want.MessagesSent == 0 || wantProto.SketchesSent == 0 {
				t.Fatalf("fixture too quiet: %d sends, %d sketches", want.MessagesSent, wantProto.SketchesSent)
			}
			for round := 1; round <= 2; round++ {
				f.net.FoldLanes()
				if f.net.transportCounters != want {
					t.Fatalf("after fold %d: transport totals %+v, want %+v", round, f.net.transportCounters, want)
				}
				if got := *f.net.Relay().Counters(); got != wantProto {
					t.Fatalf("after fold %d: protocol counters %+v, want %+v", round, got, wantProto)
				}
			}
		})
	}
}
