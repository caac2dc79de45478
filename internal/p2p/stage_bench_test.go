package p2p

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

// Stage benchmarks for the message path: the three things the overlay
// campaigns spend their time in, each on its own (docs/PERFORMANCE.md,
// "The message"). All run at 0 allocs/op.

// stageFixture is a hub with `degree` peers on the default latency
// model, every node already holding blk — so whatever a benchmark puts
// on the wire lands as a redundant delivery when the engine is drained.
type stageFixture struct {
	net   *Network
	ln    *netLane
	hub   *Node
	peers []*Node
	blk   *types.Block
	idx   int32
}

func newStageFixture(b *testing.B, degree int) *stageFixture {
	b.Helper()
	net := NewNetwork(sim.NewEngine(), sim.NewRNG(1).Fork("network"), geo.DefaultLatencyModel())
	s := &stageFixture{net: net, ln: net.home, blk: chainOf(1)[0]}
	regions := geo.Regions()
	add := func(i int) *Node {
		n, err := net.AddNode(regions[i%len(regions)], 0)
		if err != nil {
			b.Fatal(err)
		}
		n.setRelayEnabled(false)
		return n
	}
	s.hub = add(0)
	for i := 1; i <= degree; i++ {
		p := add(i)
		if err := net.Connect(s.hub, p); err != nil {
			b.Fatal(err)
		}
		s.peers = append(s.peers, p)
	}
	s.idx = net.blockIdx.intern(s.blk.Hash())
	for _, n := range net.Nodes() {
		net.acceptBlock(n.idx(), 0, s.blk, s.idx, slotUnknown, false)
	}
	return s
}

// drain delivers everything in flight, off the clock.
func (s *stageFixture) drain(b *testing.B) {
	b.StopTimer()
	s.net.Engine().Run()
	b.StartTimer()
}

// drainEvery bounds the event queue: a benchmark drains each time it
// has put this many more flights on the wire.
const drainEvery = 1 << 12

// BenchmarkDeliverRedundant is a NewBlock arriving at a node that has
// the block — 80% of an overlay campaign's deliveries: slab slot out,
// accounting, position check, one suppression mark, dedup bit.
func BenchmarkDeliverRedundant(b *testing.B) {
	s := newStageFixture(b, 16)
	hub := s.hub.idx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := int32(i & 15)
		f := flight{to: hub, from: s.peers[p].idx(), srcPos: p, size: 600, kind: MsgNewBlock, block: s.idx, b: s.blk}
		s.ln.HandleEvent(0, opDeliver, uint64(s.ln.putFlight(&f)))
	}
}

// BenchmarkFanout is a node's push wave: Candidates, the Fanout
// permutation and sqrt(degree) PushBlock sends, at a regular node's
// degree and at a measurement node's. The pushed edges' suppression
// bits are cleared again so every wave sees the full candidate list.
func BenchmarkFanout(b *testing.B) {
	for _, degree := range []int{16, 3333} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			s := newStageFixture(b, degree)
			h := s.blk.Hash()
			pushes := int(math.Sqrt(float64(degree)))
			off := s.net.top.spans[s.hub.idx()].off
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := s.net.Engine().Now()
				env := s.ln.envFor(s.hub.idx(), now, -1, -1, s.idx, slotUnknown)
				c := env.Candidates(h)
				if c != degree {
					b.Fatalf("%d candidates, want %d", c, degree)
				}
				order := env.Fanout(c)
				for k := 0; k < pushes; k++ {
					env.PushBlock(order[k], now, s.blk)
					s.net.top.knowMask[off+env.cand[order[k]]] = 0
				}
				if (i+1)*pushes%drainEvery < pushes {
					s.drain(b)
				}
			}
		})
	}
}

// BenchmarkSend is the transport send alone: fault and liveness checks,
// wire size, one latency sample, accounting, slab slot, schedule.
func BenchmarkSend(b *testing.B) {
	s := newStageFixture(b, 16)
	hub := s.hub.idx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := int32(i & 15)
		f := flight{to: s.peers[p].idx(), from: hub, srcPos: 0, kind: MsgNewBlock, block: s.idx, b: s.blk}
		s.net.send(s.net.Engine().Now(), &f)
		if i%drainEvery == drainEvery-1 {
			s.drain(b)
		}
	}
}
