package core

import "testing"

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
