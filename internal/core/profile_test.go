package core

import (
	"runtime"
	"testing"
)

// BenchmarkOverlay10k is the campaign `make profile` runs under
// -cpuprofile: the bench harness's overlay-10k configuration (10,000
// nodes, 40 blocks, streaming measurement, one engine) built once, with
// only Campaign.Run — 97% of that workload's wall, nearly all of it the
// deliver/fan-out loop — inside the timer. ns/msg is the per-message
// constant docs/PERFORMANCE.md ("The message") tracks.
func BenchmarkOverlay10k(b *testing.B) {
	var msgs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultCampaignConfig(7)
		cfg.NetworkNodes = 10_000
		cfg.Blocks = 40
		cfg.Streaming = true
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
		if _, err := RunChainOnly(7, chainOnlyBlocks, nil); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	total := float64(b.N) * chainOnlyBlocks
	b.ReportMetric(total/b.Elapsed().Seconds(), "blocks/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/block")
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
	if _, err := RunChainOnly(7, blocks, nil); err != nil {
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
