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

// allocFixture builds a warmed overlay plus a pre-built block chain
// for steady-state allocation measurement: pools, scratch buffers and
// delivery slots are all hot after the warmup blocks drain.
func allocFixture(t testing.TB, mode relay.Mode, total int) (*p2p.Network, []*p2p.Node, []*types.Block) {
	t.Helper()
	engine := sim.NewEngine()
	rng := sim.NewRNG(7)
	net := p2p.NewNetwork(engine, rng.Fork("network"), geo.DefaultLatencyModel())
	proto, err := relay.New(relay.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	net.SetRelay(proto)
	var nodes []*p2p.Node
	regions := geo.Regions()
	for i := 0; i < 30; i++ {
		n, err := net.AddNode(regions[i%len(regions)], 0)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if err := net.WireRandom(6); err != nil {
		t.Fatal(err)
	}
	parent := types.Hash{}
	blocks := make([]*types.Block, 0, total)
	for k := 0; k < total; k++ {
		blk := types.NewBlock(types.Header{
			ParentHash: parent,
			Number:     uint64(k + 1),
			MinerLabel: "Alloc",
			TimeMillis: uint64(k),
			GasLimit:   8_000_000,
		}, nil, nil)
		parent = blk.Hash()
		blocks = append(blocks, blk)
	}
	return net, nodes, blocks
}

// relayAllocsPerBlock measures steady-state heap allocations per
// block spread (inject + full drain) after a warmup.
func relayAllocsPerBlock(t testing.TB, mode relay.Mode) float64 {
	const warmup, measured = 120, 60
	// AllocsPerRun invokes the function measured+1 times.
	net, nodes, blocks := allocFixture(t, mode, warmup+measured+1)
	engine := net.Engine()
	next := 0
	spread := func() {
		blk := blocks[next]
		origin := nodes[(7*next)%len(nodes)]
		next++
		origin.InjectBlock(engine.Now(), blk)
		engine.Run()
	}
	for i := 0; i < warmup; i++ {
		spread()
	}
	return testing.AllocsPerRun(measured, spread)
}

// Steady-state allocation ceilings per block spread on a 30-node
// fixture. The spread touches every node's per-block bookkeeping
// (haveBlocks/seenHashes/peerKnows inserts are inherent, O(nodes) map
// writes), so the floor is not zero — but transport slots, messages
// and fan-out scratch are pooled, and a regression that allocates
// per *message* would show up at hundreds of allocations per block.
// Measured values on the reference setup: ~14 for both disciplines
// once the suppression-cache recycling reaches steady state (the
// warmup must exceed the 64-block knownPeerCap for that).
const (
	sqrtPushAllocCeiling = 60
	compactAllocCeiling  = 90
)

// TestRelayAllocationCeiling is the allocation-regression guard on
// the relay hot path; it runs in every tier of `go test`.
func TestRelayAllocationCeiling(t *testing.T) {
	cases := []struct {
		mode    relay.Mode
		ceiling float64
	}{
		{relay.SqrtPush, sqrtPushAllocCeiling},
		{relay.Compact, compactAllocCeiling},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			got := relayAllocsPerBlock(t, tc.mode)
			t.Logf("%s: %.1f allocs per block spread", tc.mode, got)
			if got > tc.ceiling {
				t.Fatalf("%s relay hot path allocates %.1f per block spread (ceiling %v) — a pooled structure regressed",
					tc.mode, got, tc.ceiling)
			}
		})
	}
}

// BenchmarkRelayBlockSpread reports ns and B/op for one block spread
// per discipline on the warmed fixture.
func BenchmarkRelayBlockSpread(b *testing.B) {
	for _, mode := range []relay.Mode{relay.SqrtPush, relay.Compact} {
		b.Run(fmt.Sprint(mode), func(b *testing.B) {
			net, nodes, blocks := allocFixture(b, mode, b.N+1)
			engine := net.Engine()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				origin := nodes[(7*i)%len(nodes)]
				origin.InjectBlock(engine.Now(), blocks[i])
				engine.Run()
			}
		})
	}
}
