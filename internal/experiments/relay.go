package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// relayCampaign runs one overlay campaign under a relay protocol with
// a live transaction workload (compact reconstruction is only
// interesting when blocks carry transactions). privateProb is the
// mempool-divergence knob: the fraction of transactions submitted
// straight to miners without entering gossip.
func relayCampaign(seed uint64, sc Scale, rc relay.Config, privateProb float64) (*core.CampaignResult, error) {
	nodes, blocks, _ := networkScale(sc)
	// The relay comparison needs bandwidth and delay distributions,
	// not the full propagation figure set, and it runs one campaign
	// per protocol/divergence point — so the small tier shrinks
	// further (transaction gossip dominates the cost) and the block
	// budget is capped at every scale.
	if sc == ScaleSmall {
		nodes, blocks = 120, 60
	}
	if blocks > 400 {
		blocks = 400
	}
	cfg := core.DefaultCampaignConfig(seed)
	cfg.NetworkNodes = nodes
	cfg.Blocks = blocks
	cfg.Streaming = true
	cfg.Measurement = core.PaperMeasurementSpecs(40)
	cfg.Relay = rc
	wl := txgen.DefaultConfig()
	wl.Senders = 600
	wl.MeanInterArrival = 500 * sim.Millisecond // ~2 tx/s, ~26 tx/block
	wl.PrivateProb = privateProb
	cfg.Workload = &wl
	return core.RunCampaign(cfg)
}

// CompactRelaySpread runs one compact-relay overlay campaign with
// moderately divergent mempools — the repo benchmark's `compact` spec
// (bench/workloads.go), exercising sketch pushes, reconstruction,
// missing-tx round trips and the bandwidth accounting end to end.
func CompactRelaySpread(seed uint64, sc Scale) (*core.CampaignResult, error) {
	return relayCampaign(seed, sc, relay.Config{Mode: relay.Compact}, 0.15)
}

// RelayShootout (R1) compares every registered relay protocol on the
// same seeded overlay: propagation delay against bandwidth, per-class
// byte budgets, and the compact protocol's reconstruction profile —
// the protocol-versus-topology question the paper's fixed-discipline
// measurement could not separate.
func RelayShootout(seed uint64, sc Scale) (*Outcome, error) {
	type row struct {
		mode   relay.Mode
		median float64
		p95    float64
		mbytes float64
		kbBlk  float64
		hit    float64
		msgs   uint64
	}
	var rows []row
	for _, mode := range relay.Modes() {
		res, err := relayCampaign(seed, sc, relay.Config{Mode: mode}, 0)
		if err != nil {
			return nil, fmt.Errorf("relay %s: %w", mode, err)
		}
		prop, err := analysis.PropagationDelays(res.Index)
		if err != nil {
			return nil, fmt.Errorf("relay %s: %w", mode, err)
		}
		bw := res.Bandwidth
		rows = append(rows, row{
			mode:   mode,
			median: prop.Summary.Median,
			p95:    prop.Summary.P95,
			mbytes: float64(bw.TotalBytes) / 1e6,
			kbBlk:  bw.BytesPerBlock() / 1e3,
			hit:    bw.Reconstruction.HitRate(),
			msgs:   bw.TotalMessages,
		})
	}
	rendered := "Relay protocol shoot-out — per-protocol bandwidth/delay (same seed, same overlay)\n"
	rendered += fmt.Sprintf("  %-14s %12s %10s %10s %10s %12s %9s\n",
		"protocol", "median (ms)", "p95 (ms)", "total MB", "KB/block", "messages", "hit rate")
	metrics := map[string]float64{}
	for _, r := range rows {
		hit := "-"
		if r.mode == relay.Compact {
			hit = fmt.Sprintf("%.1f%%", r.hit*100)
		}
		rendered += fmt.Sprintf("  %-14s %12.0f %10.0f %10.1f %10.1f %12d %9s\n",
			r.mode, r.median, r.p95, r.mbytes, r.kbBlk, r.msgs, hit)
		name := r.mode.String()
		metrics[name+"_median_ms"] = r.median
		metrics[name+"_mb"] = r.mbytes
		metrics[name+"_kb_per_block"] = r.kbBlk
		if r.mode == relay.Compact {
			metrics["compact_hit_rate"] = r.hit
		}
	}
	rendered += "  The push/announce split sets the delay floor; what the push wave\n" +
		"  carries sets the byte budget. Compact relay keeps sqrt-push's delay\n" +
		"  shape at a fraction of its bytes while mempools overlap.\n"
	return &Outcome{ID: "R1", Title: "Relay protocols — shoot-out", Rendered: rendered, Metrics: metrics}, nil
}

// divergencePoints are the R2 sweep's private-submission fractions:
// from fully public mempools to a majority of block content never
// gossiped.
var divergencePoints = []float64{0, 0.15, 0.3, 0.6}

// CompactDivergenceSweep (R2) sweeps mempool divergence under the
// compact protocol: as the private-transaction fraction grows, sketch
// reconstruction degrades from pool hits through missing-tx round
// trips to full-body fallbacks, and the bandwidth advantage erodes.
func CompactDivergenceSweep(seed uint64, sc Scale) (*Outcome, error) {
	rendered := "Compact relay — mempool-divergence sweep (private-submission fraction)\n"
	rendered += fmt.Sprintf("  %-9s %12s %10s %8s %10s %10s %10s %10s\n",
		"private", "median (ms)", "KB/block", "hit", "full", "roundtrip", "fallback", "missing tx")
	metrics := map[string]float64{}
	for _, p := range divergencePoints {
		res, err := relayCampaign(seed, sc, relay.Config{Mode: relay.Compact}, p)
		if err != nil {
			return nil, fmt.Errorf("divergence %v: %w", p, err)
		}
		prop, err := analysis.PropagationDelays(res.Index)
		if err != nil {
			return nil, fmt.Errorf("divergence %v: %w", p, err)
		}
		bw := res.Bandwidth
		r := bw.Reconstruction
		rendered += fmt.Sprintf("  %8.0f%% %12.0f %10.1f %7.1f%% %10d %10d %10d %10d\n",
			p*100, prop.Summary.Median, bw.BytesPerBlock()/1e3, r.HitRate()*100,
			r.Full, r.Partial, r.Fallback, r.MissingTxs)
		key := fmt.Sprintf("p%02.0f", p*100)
		metrics[key+"_median_ms"] = prop.Summary.Median
		metrics[key+"_kb_per_block"] = bw.BytesPerBlock() / 1e3
		metrics[key+"_hit_rate"] = r.HitRate()
		metrics[key+"_fallbacks"] = float64(r.Fallback)
	}
	rendered += "  Reconstruction is a bet on mempool overlap: private order flow is\n" +
		"  the knob that voids it.\n"
	return &Outcome{ID: "R2", Title: "Compact relay — mempool-divergence sweep", Rendered: rendered, Metrics: metrics}, nil
}
