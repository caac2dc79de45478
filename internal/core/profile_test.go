package core

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// BenchmarkOverlay10k is the campaign `make profile` runs under
// -cpuprofile: the bench harness's overlay-10k configuration (10,000
// nodes, 40 blocks, streaming measurement, one engine) built once, with
// only Campaign.Run — 97% of that workload's wall, nearly all of it the
// deliver/fan-out loop — inside the timer. ns/msg is the per-message
// constant docs/PERFORMANCE.md ("The message") tracks.
func BenchmarkOverlay10k(b *testing.B) { benchOverlay10k(b, 0) }

// BenchmarkOverlay10kSharded is the campaign `make profile-shard` runs
// under -cpuprofile: the same run on the conductor at two workers, the
// bench harness's overlay-10k-sharded configuration — window loop,
// warm barrier, per-destination merge and ordered tie band included.
func BenchmarkOverlay10kSharded(b *testing.B) { benchOverlay10k(b, 2) }

// benchOverlay10k times Campaign.Run of the overlay-10k configuration
// at the given shard setting (0 = one engine).
func benchOverlay10k(b *testing.B, shards int) {
	var msgs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewCampaign(overlay10kConfig(shards))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.MessagesSent
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// BenchmarkCommit is the run `make profile-tx` profiles: the `commit`
// spec's workload campaign at small scale (100 nodes, 150 blocks,
// degree 6, four measurement nodes at 30 peers, 600 senders at one
// transaction per 500 ms, tx links captured, streaming), built off the
// clock. Transaction gossip is most of it; ns/msg and allocs/op are the
// figures docs/PERFORMANCE.md ("The transaction") tracks.
func BenchmarkCommit(b *testing.B) {
	b.ReportAllocs()
	var msgs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultCampaignConfig(7)
		cfg.NetworkNodes = 100
		cfg.Blocks = 150
		cfg.Degree = 6
		cfg.Measurement = PaperMeasurementSpecs(30)
		cfg.Streaming = true
		wl := txgen.DefaultConfig()
		wl.Senders = 600
		wl.MeanInterArrival = 500 * sim.Millisecond
		cfg.Workload = &wl
		c, err := NewCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.MessagesSent
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// chainOnlyBlocks is BenchmarkChainOnly's run length: long enough that
// per-block costs swamp set-up, short enough for `make profile-chain`.
const chainOnlyBlocks = 50_000

// BenchmarkChainOnly is the run `make profile-chain` profiles: the
// chain-level Monte-Carlo every fork/uncle/sequence experiment is made
// of (mining race, uncle selection, block assembly and hashing, tree
// insert, the analysis view), no overlay. blocks/s and allocs/block are
// the figures docs/PERFORMANCE.md ("The block") tracks.
func BenchmarkChainOnly(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if err := chainOnlyWithView(7, chainOnlyBlocks); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	total := float64(b.N) * chainOnlyBlocks
	b.ReportMetric(total/b.Elapsed().Seconds(), "blocks/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/block")
}

// chainOnlyWithView is the work a view-reading chain spec does per
// run: the chain-only Monte-Carlo, then the analysis view of its tree.
func chainOnlyWithView(seed, blocks uint64) error {
	res, err := RunChainOnly(seed, blocks, nil)
	if err != nil {
		return err
	}
	_, err = analysis.ViewFromTree(res.Tree)
	return err
}

// TestChainOnlyAllocCeiling keeps the per-block cost of the chain-only
// run under a ceiling in tier 1. Before the per-block path was rebuilt
// it stood at 158 allocations and 16.4 KB per block (every mined block
// re-encoded and re-hashed the headers of the last seven heights); it
// now measures 7.2 and 1.5 KB, analysis view included.
func TestChainOnlyAllocCeiling(t *testing.T) {
	const blocks = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := chainOnlyWithView(7, blocks); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / blocks
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / blocks
	t.Logf("%.1f allocs/block, %.0f B/block", allocs, bytes)
	if allocs > 12 || bytes > 4096 {
		t.Fatalf("chain-only run costs %.1f allocs and %.0f B per block, ceiling 12 and 4096", allocs, bytes)
	}
}

// chainOnlyHeapPerBlock is the live-heap ceiling of a finished
// chain-only run, per block: the tree and the one-miner tuples, which
// is all RunChainOnly hands back. docs/PERFORMANCE.md ("Memory: what a
// chain-only run holds") explains the figure; raise it only with a
// matching doc update.
const chainOnlyHeapPerBlock = 900

// TestChainOnlyHeapCeiling pins what a chain-only result keeps alive.
// The tree measures ≈634 B per block; the eager analysis view and
// publish-time map RunChainOnly used to build beside it brought the
// result to ≈1,204, so either of them coming back fails here. Not
// parallel: the readings are process-wide.
func TestChainOnlyHeapCeiling(t *testing.T) {
	const blocks = 20_000
	before := liveHeap()
	res, err := RunChainOnly(7, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	perBlock := (int64(after) - int64(before)) / blocks
	t.Logf("chain-only result: %d bytes live, %d B/block (ceiling %d)", int64(after)-int64(before), perBlock, chainOnlyHeapPerBlock)
	if perBlock > chainOnlyHeapPerBlock {
		t.Fatalf("chain-only result holds %d B per block, ceiling %d", perBlock, chainOnlyHeapPerBlock)
	}
	runtime.KeepAlive(res)
}

// liveHeap settles the heap and reports live bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// overlay10kConfig is the bench harness's overlay-10k campaign
// (BenchmarkOverlay10k's): 10,000 nodes, 40 blocks, streaming
// measurement, at the given shard setting (0 = one engine).
func overlay10kConfig(shards int) CampaignConfig {
	cfg := DefaultCampaignConfig(7)
	cfg.NetworkNodes = 10_000
	cfg.Blocks = 40
	cfg.Streaming = true
	cfg.Shards = shards
	return cfg
}

// buildGarbageRatio bounds what building the overlay may allocate, as a
// multiple of the heap the built campaign keeps alive.
const buildGarbageRatio = 1.5

// TestOverlayBuildGarbage pins the build's transient garbage: building
// the overlay-10k campaign through NewCampaign — so the one
// Network.Reserve call is covered — may allocate at most
// buildGarbageRatio times the heap the built campaign retains. Growing
// every per-node slice and the adjacency arena by append's ~1.25×
// steps instead allocated 74.4 MB to keep 15.9 MB (4.7×). Not
// parallel: the readings are process-wide.
func TestOverlayBuildGarbage(t *testing.T) {
	before := liveHeap()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c, err := NewCampaign(overlay10kConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	retained := liveHeap() - before
	built := ms1.TotalAlloc - ms0.TotalAlloc
	t.Logf("overlay-10k build: %.1f MB allocated, %.1f MB retained (%.2f×, ceiling %.1f×)",
		float64(built)/1e6, float64(retained)/1e6, float64(built)/float64(retained), buildGarbageRatio)
	if float64(built) > buildGarbageRatio*float64(retained) {
		t.Fatalf("building overlay-10k allocated %d bytes to retain %d, more than %.1f×", built, retained, buildGarbageRatio)
	}
	runtime.KeepAlive(c)
}

// runGarbageRatio bounds what Campaign.Run of overlay-10k may allocate,
// as a multiple of what the run adds to the live heap; runBytesPerNode
// bounds what it adds, per overlay node.
const (
	runGarbageRatio = 1.8
	runBytesPerNode = 720
)

// TestOverlayRunGarbage pins the run's transient garbage: Campaign.Run
// of the overlay-10k campaign may allocate at most runGarbageRatio
// times what it adds to the live heap. With a body-cache queue per node
// growing 8→16→32→64 entries and flight slabs doubling by copy, the
// run allocated 18.1 MB to add 9.5 MB (1.91×); with the rings laid out
// by Network.Reserve, the flights in fixed chunks whose free stacks
// grow with their slots, and the fan-out scratch doubling to the span
// it scans, it allocates 9.4 MB to add 5.8 MB (1.61×). The known
// remainder is the engine's node arena, which still doubles: about
// 3 MB of the run's garbage (docs/PERFORMANCE.md, "Tried, measured,
// and not done"). The ratio cannot see an array that grows far past
// what it holds, since its untouched capacity counts on both sides: a
// free stack that doubled on every slab chunk added 9.2 MB at 1.77×.
// The per-node bound catches that: the run adds about 580 B per node,
// and the doubling free stacks 919 B. Not parallel: the readings are
// process-wide.
func TestOverlayRunGarbage(t *testing.T) {
	c, err := NewCampaign(overlay10kConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	added := liveHeap() - before
	run := ms1.TotalAlloc - ms0.TotalAlloc
	t.Logf("overlay-10k run: %.1f MB allocated, %.1f MB added to the live heap (%.2f×, ceiling %.2f×)",
		float64(run)/1e6, float64(added)/1e6, float64(run)/float64(added), runGarbageRatio)
	if float64(run) > runGarbageRatio*float64(added) {
		t.Fatalf("running overlay-10k allocated %d bytes to add %d to the live heap, more than %.2f×", run, added, runGarbageRatio)
	}
	nodes := c.network.Len()
	t.Logf("overlay-10k run: %d B added per node of %d (ceiling %d B)", added/uint64(nodes), nodes, runBytesPerNode)
	if added > runBytesPerNode*uint64(nodes) {
		t.Fatalf("running overlay-10k added %d bytes to the live heap, more than %d B for each of %d nodes", added, runBytesPerNode, nodes)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(res)
}
