package p2p

import (
	"fmt"
	"testing"

	"repro/internal/p2p/relay"
)

// shardAllocFixture builds the region-lane overlay the allocation
// measurements run on: 30 nodes spread across every region (so block
// spreads cross lanes constantly), wired and started.
func shardAllocFixture(t testing.TB) (*layoutFixture, []*Node) {
	t.Helper()
	f := newLayoutFixture(t, true, 7, relay.SqrtPush)
	nodes := f.addSpread(t, 30)
	if err := f.net.WireRandom(6); err != nil {
		t.Fatal(err)
	}
	f.start(t)
	return f, nodes
}

// shardedAllocsPerSpread measures steady-state heap allocations for
// one sharded block spread: inject at the frontier, then run the
// conductor's window loop to drain — merges, cross-buffer appends and
// phase-B lane execution included.
func shardedAllocsPerSpread(t testing.TB, workers int) float64 {
	const warmup, measured = 120, 60
	f, nodes := shardAllocFixture(t)
	blocks := chainOf(warmup + measured + 1)
	next := 0
	spread := func() {
		blk := blocks[next]
		origin := nodes[(7*next)%len(nodes)]
		next++
		origin.InjectBlock(f.now(), blk)
		f.run(workers)
	}
	for i := 0; i < warmup; i++ {
		spread()
	}
	return testing.AllocsPerRun(measured, spread)
}

// The cross-shard queue's allocation contract: in steady state the
// per-lane cross buffers, the merge's sort scratch, the lane message
// pools (leveled across lanes at each merge, so exporter lanes never
// drain), the pair-window stats and the lane delivery slots are all
// recycled, so a sharded spread costs the same per-node bookkeeping
// as an unsharded one (haveBlocks/peerKnows map inserts, ~14 on this
// fixture) plus a small constant from each Conductor.Run call (the
// phase-B worker pool: jobs channel, goroutines, snapshot slices). A
// regression that allocates per cross-lane *message* — a fresh
// crossMsg, an unpooled sort buffer, a per-merge refs slice, a
// message pool drained by one-way flows — would show up at hundreds
// per spread. Measured: 12 at workers=1, 17 at workers=6.
const shardedSpreadAllocCeiling = 30

// TestShardedAllocationCeiling guards the cross-shard queue's
// steady-state allocation behaviour at both ends of the worker knob.
func TestShardedAllocationCeiling(t *testing.T) {
	for _, workers := range []int{1, 6} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := shardedAllocsPerSpread(t, workers)
			t.Logf("workers=%d: %.1f allocs per sharded block spread", workers, got)
			if got > shardedSpreadAllocCeiling {
				t.Fatalf("sharded spread allocates %.1f (ceiling %v) — a cross-shard queue structure stopped recycling",
					got, shardedSpreadAllocCeiling)
			}
		})
	}
}

// BenchmarkShardedBlockSpread reports ns and B/op for one sharded
// block spread (inject + window-loop drain) on the warmed fixture.
func BenchmarkShardedBlockSpread(b *testing.B) {
	for _, workers := range []int{1, 6} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f, nodes := shardAllocFixture(b)
			blocks := chainOf(b.N + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				origin := nodes[(7*i)%len(nodes)]
				origin.InjectBlock(f.now(), blocks[i])
				f.run(workers)
			}
		})
	}
}
