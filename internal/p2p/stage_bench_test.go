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
// "The message"), and the two a transaction workload adds ("The
// transaction"). All run at 0 allocs/op.

// stageFixture is a hub with `degree` peers on the default latency
// model, relay off everywhere and every node already holding blk and
// tx — so whatever a benchmark puts on the wire lands as a redundant
// delivery when the engine is drained.
type stageFixture struct {
	net   *Network
	ln    *netLane
	hub   *Node
	peers []*Node
	blk   *types.Block
	idx   int32
	txIdx int32
}

func newStageFixture(b testing.TB, degree int) *stageFixture {
	b.Helper()
	net := NewNetwork(sim.NewEngine(), sim.NewRNG(1).Fork("network"), geo.DefaultLatencyModel())
	s := &stageFixture{net: net, blk: chainOf(1)[0]}
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
	tx := testTx(1)
	for _, n := range net.Nodes() {
		net.acceptBlock(n.idx(), 0, s.blk, s.idx, slotUnknown, false)
		n.InjectTx(0, tx)
	}
	s.txIdx, _ = net.txIdx.lookup(tx.Hash())
	s.ln = net.laneOf(s.hub.idx())
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
		f := flight{to: hub, from: s.peers[p].idx(), srcPos: p, size: 600, kind: MsgNewBlock, item: s.idx}
		s.ln.HandleEvent(0, opDeliver, uint64(s.ln.flights.put(&f)))
	}
}

// BenchmarkFanout is a node's push wave: the candidate scan, the
// permutation and sqrt(degree) NewBlock sends, at a regular node's
// degree and at a measurement node's. The pushed edges' suppression
// bits are cleared again so every wave sees the full candidate list.
func BenchmarkFanout(b *testing.B) {
	for _, degree := range []int{16, 3333} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			s := newStageFixture(b, degree)
			hub := s.hub.idx()
			pushes := int(math.Sqrt(float64(degree)))
			off := s.net.top.spans[hub].off
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := s.net.Engine().Now()
				cand, slot := s.ln.candidates(hub, s.idx, slotUnknown)
				if len(cand) != degree {
					b.Fatalf("%d candidates, want %d", len(cand), degree)
				}
				s.ln.fanOut(hub, s.idx, slot, cand, pushes, now, MsgNewBlock)
				// fanOut sent to the first pushes of the shuffled candidates.
				for _, p := range cand[:pushes] {
					s.net.top.knowMask[off+p] = 0
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
		f := flight{to: s.peers[p].idx(), from: hub, srcPos: 0, kind: MsgNewBlock, item: s.idx}
		s.net.send(s.net.Engine().Now(), &f)
		if i%drainEvery == drainEvery-1 {
			s.drain(b)
		}
	}
}

// BenchmarkTxDeliverRedundant is a transaction arriving at a node that
// already has it — most of a workload campaign's deliveries: slab slot
// out, accounting, one dedup bit.
func BenchmarkTxDeliverRedundant(b *testing.B) {
	s := newStageFixture(b, 16)
	hub := s.hub.idx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flight{to: hub, from: s.peers[i&15].idx(), srcPos: -1, size: 128, kind: MsgTransactions, item: s.txIdx}
		s.ln.HandleEvent(0, opDeliver, uint64(s.ln.flights.put(&f)))
	}
}

// BenchmarkTxFanout is a fresh transaction's admission and flood: the
// dedup bit, then one send to every peer but the sender, at a regular
// node's degree and at a measurement node's. The hub's bit is cleared
// again so every iteration floods.
func BenchmarkTxFanout(b *testing.B) {
	for _, degree := range []int{16, 3333} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			s := newStageFixture(b, degree)
			hub := s.hub.idx()
			s.hub.setRelayEnabled(true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.net.txBits.clear(hub, s.txIdx)
				s.net.handleTx(hub, s.net.Engine().Now(), hub, s.txIdx)
				if (i+1)*degree%drainEvery < degree {
					s.drain(b)
				}
			}
		})
	}
}
