// Package experiments packages every paper experiment as a callable
// harness: a registry of specs, the parallel campaign runner (Run) and
// the run-directory writers. Each experiment returns an Outcome
// holding the rendered paper-style table/figure plus headline metrics
// for EXPERIMENTS.md's paper-vs-measured comparison.
//
// Both front ends (cmd/ethrepro, internal/server) drive the runner and
// then write and seal the run directory through scenario.Seal, which
// calls WriteArtifacts, WriteTelemetry and WriteManifest in the one
// order that keeps a directory verifiable; only the repo benchmark
// (bench/) calls the writers directly, to time each step.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mining"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	// ScaleSmall runs in seconds (tests, quick benches).
	ScaleSmall Scale = iota + 1
	// ScaleMedium is the default for cmd/ethrepro (minutes).
	ScaleMedium
	// ScalePaper approaches the paper's block counts where feasible.
	ScalePaper
	// ScaleStress pushes the overlay an order of magnitude past the
	// paper's sizing (10k nodes on the network experiments) to
	// exercise the hot path at the limit of the hardware.
	ScaleStress
	// ScaleStress100k is the flat-layout tier: a 100k-node overlay
	// (mainnet-order peer count) over a short block horizon. Viable
	// because per-node state is struct-of-arrays and dedup is bit
	// tables — see docs/PERFORMANCE.md, "Memory layout".
	ScaleStress100k
)

// scaleNames names the scales in constant order. ParseScale, its error
// text, String and the CLI's -scale help all read this one list.
var scaleNames = [...]string{"small", "medium", "paper", "stress", "stress100k"}

// ParseScale parses a scale name as accepted by the CLIs.
func ParseScale(s string) (Scale, error) {
	for i, name := range scaleNames {
		if s == name {
			return Scale(i + 1), nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (%s)", s, strings.Join(scaleNames[:], "|"))
}

// String names the scale; "unknown" outside the declared constants.
func (s Scale) String() string {
	if s < ScaleSmall || int(s) > len(scaleNames) {
		return "unknown"
	}
	return scaleNames[s-1]
}

// Outcome is one experiment's result.
type Outcome struct {
	// ID is the experiment identifier from DESIGN.md (F1, T2, ...).
	ID string
	// Title names the paper artifact.
	Title string
	// Rendered is the paper-style text table/figure.
	Rendered string
	// Metrics holds headline numbers keyed by name, for automated
	// paper-vs-measured comparison.
	Metrics map[string]float64
}

// networkScale returns overlay sizing per scale.
func networkScale(sc Scale) (nodes int, blocks uint64, peers int) {
	switch sc {
	case ScaleMedium:
		return 800, 500, 0
	case ScalePaper:
		return 2000, 1500, 0
	case ScaleStress:
		// An order of magnitude past the paper's overlay: the pooled
		// event engine holds this in memory because measurement is
		// streaming and per-node caches are bounded.
		return 10_000, 200, 0
	case ScaleStress100k:
		// Mainnet-order overlay over a short horizon. Measurement
		// peering is capped (not "unlimited") so vantage reception
		// volume stays bounded while the overlay does the scaling.
		return 100_000, 40, 2000
	default:
		return 250, 150, 0
	}
}

// chainScale returns chain-only block counts per scale.
func chainScale(sc Scale) uint64 {
	switch sc {
	case ScaleMedium, ScalePaper, ScaleStress, ScaleStress100k:
		return 201_086 // the paper's one-month main-chain length
	default:
		return 20_000
	}
}

// wholeChainScale sizes the long-horizon Monte-Carlo (§III-D's
// whole-chain sweep; mainnet had ~7.7M blocks at measurement time).
func wholeChainScale(sc Scale) uint64 {
	switch sc {
	case ScaleMedium:
		return 1_000_000
	case ScalePaper:
		return 7_680_658
	case ScaleStress, ScaleStress100k:
		return 2_000_000
	default:
		return 100_000
	}
}

// networkCampaign runs the shared Figs. 1-3 campaign. Registry
// campaigns always run streaming: the analyses consume the index, not
// the raw log, so memory stays O(items) at any scale.
func networkCampaign(seed uint64, sc Scale) (*core.CampaignResult, error) {
	nodes, blocks, peers := networkScale(sc)
	cfg := core.DefaultCampaignConfig(seed)
	cfg.NetworkNodes = nodes
	cfg.Blocks = blocks
	cfg.Measurement = core.PaperMeasurementSpecs(peers)
	cfg.Streaming = true
	return core.RunCampaign(cfg)
}

// NetworkExperiments runs one campaign and derives Figs. 1, 2 and 3
// from it (the paper computes all three from the same month of logs).
func NetworkExperiments(seed uint64, sc Scale) ([]*Outcome, error) {
	res, err := networkCampaign(seed, sc)
	if err != nil {
		return nil, fmt.Errorf("network campaign: %w", err)
	}
	prop, err := analysis.PropagationDelays(res.Index)
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}
	first, err := analysis.FirstObservations(res.Index)
	if err != nil {
		return nil, fmt.Errorf("fig2: %w", err)
	}
	pools, err := analysis.PoolFirstObservations(res.Index, 15)
	if err != nil {
		return nil, fmt.Errorf("fig3: %w", err)
	}
	f1 := &Outcome{
		ID:       "F1",
		Title:    "Figure 1 — block propagation delay",
		Rendered: analysis.RenderPropagation(prop),
		Metrics: map[string]float64{
			"median_ms": prop.Summary.Median,
			"mean_ms":   prop.Summary.Mean,
			"p95_ms":    prop.Summary.P95,
			"p99_ms":    prop.Summary.P99,
		},
	}
	f2 := &Outcome{
		ID:       "F2",
		Title:    "Figure 2 — first observation share per region",
		Rendered: analysis.RenderFirstObservations(first),
		Metrics: map[string]float64{
			"EA_share": first.Share["EA"],
			"NA_share": first.Share["NA"],
			"WE_share": first.Share["WE"],
			"CE_share": first.Share["CE"],
		},
	}
	eaPoolShare := 0.0
	if m, ok := pools.FirstShare["Sparkpool"]; ok {
		eaPoolShare = m["EA"]
	}
	f3 := &Outcome{
		ID:       "F3",
		Title:    "Figure 3 — first observation per mining pool",
		Rendered: analysis.RenderPoolObservations(pools, []string{"EA", "NA", "WE", "CE"}),
		Metrics: map[string]float64{
			"sparkpool_EA_first": eaPoolShare,
			"pools":              float64(len(pools.Pools)),
		},
	}
	return []*Outcome{f1, f2, f3}, nil
}

// Table1 renders the static infrastructure table.
func Table1() *Outcome {
	return &Outcome{
		ID:       "T1",
		Title:    "Table I — measurement infrastructure",
		Rendered: "Table I — Measurement infrastructure (paper testbed, simulated per DESIGN.md)\n" + core.RenderInfrastructure(),
		Metrics:  map[string]float64{"machines": float64(len(core.InfrastructureSpecs()))},
	}
}

// Table2 runs the subsidiary 25-peer redundancy measurement (§II's
// May 2-9 campaign) and renders Table II.
func Table2(seed uint64, sc Scale) (*Outcome, error) {
	nodes, blocks, _ := networkScale(sc)
	cfg := core.DefaultCampaignConfig(seed)
	cfg.NetworkNodes = nodes
	cfg.Blocks = blocks
	cfg.Streaming = true
	// One default-configuration node alongside the four primaries,
	// exactly like the paper's subsidiary measurement.
	cfg.Measurement = append(core.PaperMeasurementSpecs(0),
		core.MeasurementSpec{Name: "WE-default", Region: geo.WesternEurope, Peers: 25})
	res, err := core.RunCampaign(cfg)
	if err != nil {
		return nil, fmt.Errorf("redundancy campaign: %w", err)
	}
	red, err := analysis.Redundancy(res.Index, "WE-default")
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	return &Outcome{
		ID:       "T2",
		Title:    "Table II — redundant block receptions",
		Rendered: analysis.RenderRedundancy(red),
		Metrics: map[string]float64{
			"announce_mean": red.Announcements.Mean,
			"whole_mean":    red.WholeBlocks.Mean,
			"combined_mean": red.Combined.Mean,
			"combined_p99":  red.Combined.P99,
		},
	}, nil
}

// workloadCampaign runs the Figs. 4-5 campaign: a smaller overlay with
// a live transaction workload and tx-link capture. mutate, when
// non-nil, adjusts the mining configuration (scenario experiments).
func workloadCampaign(seed uint64, sc Scale, mutate func(*mining.Config)) (*core.CampaignResult, error) {
	cfg := core.DefaultCampaignConfig(seed)
	switch sc {
	case ScaleMedium:
		cfg.NetworkNodes = 200
		cfg.Blocks = 400
	case ScalePaper:
		cfg.NetworkNodes = 400
		cfg.Blocks = 800
	case ScaleStress, ScaleStress100k:
		// The workload tier measures commit latency, not overlay
		// scale; the 100k tier stresses the network experiments only.
		cfg.NetworkNodes = 1000
		cfg.Blocks = 1200
	default:
		cfg.NetworkNodes = 100
		cfg.Blocks = 150
	}
	cfg.Degree = 6
	cfg.Measurement = core.PaperMeasurementSpecs(30)
	cfg.CaptureTxLinks = true
	cfg.Streaming = true
	wl := txgen.DefaultConfig()
	wl.Senders = 600
	wl.MeanInterArrival = 500 * sim.Millisecond // ~2 tx/s, ~26 tx/block
	cfg.Workload = &wl
	if mutate != nil {
		mutate(&cfg.Mining)
	}
	return core.RunCampaign(cfg)
}

// CommitExperiments runs one workload campaign and derives Figs. 4-5.
func CommitExperiments(seed uint64, sc Scale) ([]*Outcome, error) {
	res, err := workloadCampaign(seed, sc, nil)
	if err != nil {
		return nil, fmt.Errorf("workload campaign: %w", err)
	}
	commit, err := analysis.CommitTimes(res.Index, res.View)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	reorder, err := analysis.Reordering(res.Index, res.View)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	med := func(e interface {
		Value(float64) (float64, error)
	}, q float64) float64 {
		v, err := e.Value(q)
		if err != nil {
			return -1
		}
		return v
	}
	f4 := &Outcome{
		ID:       "F4",
		Title:    "Figure 4 — transaction inclusion and commit times",
		Rendered: analysis.RenderCommit(commit),
		Metrics: map[string]float64{
			"inclusion_median_s": med(commit.Inclusion, 0.5),
			"txs":                float64(commit.Txs),
		},
	}
	if conf12, ok := commit.Confirmations[12]; ok {
		f4.Metrics["conf12_median_s"] = med(conf12, 0.5)
	}
	f5 := &Outcome{
		ID:       "F5",
		Title:    "Figure 5 — commit delay by observed ordering",
		Rendered: analysis.RenderReordering(reorder),
		Metrics: map[string]float64{
			"ooo_fraction": reorder.OutOfOrderFraction,
		},
	}
	if reorder.InOrder.Len() > 0 {
		f5.Metrics["inorder_median_s"] = med(reorder.InOrder, 0.5)
		f5.Metrics["inorder_p90_s"] = med(reorder.InOrder, 0.9)
	}
	if reorder.OutOfOrder.Len() > 0 {
		f5.Metrics["ooo_median_s"] = med(reorder.OutOfOrder, 0.5)
		f5.Metrics["ooo_p90_s"] = med(reorder.OutOfOrder, 0.9)
	}
	return []*Outcome{f4, f5}, nil
}

// ChainExperiments runs one chain-level simulation at the paper's
// month scale and derives Fig. 6, Table III, the one-miner-fork
// analysis, Fig. 7 and the censorship comparison.
func ChainExperiments(seed uint64, sc Scale) ([]*Outcome, error) {
	res, err := core.RunChainOnly(seed, chainScale(sc), nil)
	if err != nil {
		return nil, fmt.Errorf("chain run: %w", err)
	}
	empty, err := analysis.EmptyBlocks(res.View)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	forks, err := analysis.Forks(res.View)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	oneMiner, err := analysis.OneMinerForks(res.View)
	if err != nil {
		return nil, fmt.Errorf("one-miner: %w", err)
	}
	seq, err := analysis.Sequences(res.View)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	censor, err := analysis.CensorshipWindows(seq, 6, 13.3)
	if err != nil {
		return nil, fmt.Errorf("censorship: %w", err)
	}

	f6 := &Outcome{
		ID:       "F6",
		Title:    "Figure 6 — empty blocks per mining pool",
		Rendered: analysis.RenderEmptyBlocks(empty, 16),
		Metrics: map[string]float64{
			"empty_fraction": empty.Fraction,
			"zhizhu_rate":    empty.PerPool["Zhizhu"].Rate(),
			"nanopool_empty": float64(empty.PerPool["Nanopool"].Empty),
		},
	}
	t3 := &Outcome{
		ID:       "T3",
		Title:    "Table III — fork types and lengths",
		Rendered: analysis.RenderForks(forks),
		Metrics: map[string]float64{
			"len1_total":      float64(forks.ByLength[1].Total),
			"len1_recognized": float64(forks.ByLength[1].Recognized),
			"len2_total":      float64(forks.ByLength[2].Total),
			"len3_total":      float64(forks.ByLength[3].Total),
			"main_blocks":     float64(forks.MainBlocks),
			"uncle_blocks":    float64(forks.UncleBlocks),
			"unrecognized":    float64(forks.UnrecognizedBlocks),
		},
	}
	s1 := &Outcome{
		ID:       "S1",
		Title:    "§III-C5 — one-miner forks",
		Rendered: analysis.RenderOneMinerForks(oneMiner),
		Metrics: map[string]float64{
			"pairs":               float64(oneMiner.TupleCounts[2]),
			"triples":             float64(oneMiner.TupleCounts[3]),
			"recognized_fraction": oneMiner.RecognizedFraction,
			"same_tx_fraction":    oneMiner.SameTxSetFraction,
			"fraction_of_forks":   oneMiner.FractionOfForks,
		},
	}
	maxRun := 0
	for _, r := range seq.MaxRun {
		if r > maxRun {
			maxRun = r
		}
	}
	f7 := &Outcome{
		ID:       "F7",
		Title:    "Figure 7 — consecutive main-chain sequences per pool",
		Rendered: analysis.RenderSequences(seq, 6, 9) + analysis.RenderCensorship(censor),
		Metrics: map[string]float64{
			"max_run":           float64(maxRun),
			"ethermine_max_run": float64(seq.MaxRun["Ethermine"]),
			"sparkpool_max_run": float64(seq.MaxRun["Sparkpool"]),
		},
	}
	return []*Outcome{f6, t3, s1, f7}, nil
}

// WholeChainExperiment runs the long-horizon sequence census (§III-D's
// look beyond the one-month window).
func WholeChainExperiment(seed uint64, sc Scale) (*Outcome, error) {
	blocks := wholeChainScale(sc)
	res, err := core.RunChainOnly(seed, blocks, func(c *mining.Config) {
		// Sequence statistics need no forks, uncles or bodies: strip
		// the model to the mining race so millions of blocks stay
		// cheap.
		for i := range c.Pools {
			c.Pools[i].EmptyBlockProb = 0
			c.Pools[i].MultiVersionProb = 0
			c.Pools[i].SwitchDelayMean = 0
		}
		c.GatewayDelay = 0
	})
	if err != nil {
		return nil, fmt.Errorf("whole-chain run: %w", err)
	}
	seq, err := analysis.Sequences(res.View)
	if err != nil {
		return nil, err
	}
	tail := analysis.WholeChainTail(seq, 8)
	out := &Outcome{
		ID:       "S2",
		Title:    "§III-D — whole-chain sequence tail",
		Rendered: analysis.RenderWholeChainTail(tail, len(res.View.Main)),
		Metrics:  map[string]float64{"blocks": float64(len(res.View.Main))},
	}
	for l, n := range tail {
		out.Metrics[fmt.Sprintf("len_%d", l)] = float64(n)
	}
	return out, nil
}

// Lesson1Experiment ablates the §V uncle restriction: identical seeds
// with the rule off and on, comparing one-miner uncle rewards and the
// mining power spent on recognized forks.
func Lesson1Experiment(seed uint64, sc Scale) (*Outcome, error) {
	blocks := chainScale(sc) / 4
	run := func(restrict bool) (*analysis.OneMinerForkResult, *analysis.ForksResult, error) {
		res, err := core.RunChainOnly(seed, blocks, func(c *mining.Config) {
			c.Uncles.RestrictOneMinerUncles = restrict
		})
		if err != nil {
			return nil, nil, err
		}
		om, err := analysis.OneMinerForks(res.View)
		if err != nil {
			return nil, nil, err
		}
		fk, err := analysis.Forks(res.View)
		if err != nil {
			return nil, nil, err
		}
		return om, fk, nil
	}
	stdOM, stdFK, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("standard run: %w", err)
	}
	resOM, resFK, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("restricted run: %w", err)
	}
	rendered := fmt.Sprintf(`Lesson 1 (§V) — restricted one-miner uncle rule ablation (%d blocks)
  standard:   one-miner versions recognized %.0f%%, uncle blocks %d
  restricted: one-miner versions recognized %.0f%%, uncle blocks %d
  The restriction removes the reward for mining multiple versions of
  one's own block, reclaiming the ~1%% of mining power the paper
  estimates is spent on one-miner forks.
`, blocks,
		stdOM.RecognizedFraction*100, stdFK.UncleBlocks,
		resOM.RecognizedFraction*100, resFK.UncleBlocks)
	return &Outcome{
		ID:       "L1",
		Title:    "Lesson 1 — restricted uncle rule",
		Rendered: rendered,
		Metrics: map[string]float64{
			"standard_recognized":   stdOM.RecognizedFraction,
			"restricted_recognized": resOM.RecognizedFraction,
			"standard_uncles":       float64(stdFK.UncleBlocks),
			"restricted_uncles":     float64(resFK.UncleBlocks),
		},
	}, nil
}

// AblationFanout compares dissemination policies (sqrt-push vs
// push-all vs announce-only) on propagation delay and redundancy —
// the design choice behind Fig. 1 and Table II.
func AblationFanout(seed uint64, sc Scale) (*Outcome, error) {
	nodes, blocks, _ := networkScale(ScaleSmall)
	if sc != ScaleSmall {
		nodes, blocks = 500, 250
	}
	type row struct {
		policy relay.Mode
		median float64
		whole  float64
		bytes  uint64
	}
	var rows []row
	for _, policy := range []relay.Mode{relay.SqrtPush, relay.PushAll, relay.AnnounceOnly} {
		cfg := core.DefaultCampaignConfig(seed)
		cfg.NetworkNodes = nodes
		cfg.Blocks = blocks
		cfg.Streaming = true
		cfg.Measurement = append(core.PaperMeasurementSpecs(40),
			core.MeasurementSpec{Name: "D25", Region: geo.WesternEurope, Peers: 25})
		cfg.Relay = relay.Config{Mode: policy}
		res, err := core.RunCampaign(cfg)
		if err != nil {
			return nil, fmt.Errorf("fanout %v: %w", policy, err)
		}
		prop, err := analysis.PropagationDelays(res.Index)
		if err != nil {
			return nil, err
		}
		red, err := analysis.Redundancy(res.Index, "D25")
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{policy: policy, median: prop.Summary.Median, whole: red.WholeBlocks.Mean, bytes: res.BytesSent})
	}
	rendered := "Ablation — dissemination fan-out policy\n"
	rendered += fmt.Sprintf("  %-14s %12s %16s %12s\n", "policy", "median (ms)", "whole blks/blk", "total MB")
	metrics := map[string]float64{}
	for _, r := range rows {
		rendered += fmt.Sprintf("  %-14s %12.0f %16.2f %12.1f\n", r.policy, r.median, r.whole, float64(r.bytes)/1e6)
		metrics[r.policy.String()+"_median_ms"] = r.median
		metrics[r.policy.String()+"_receptions"] = r.whole
		metrics[r.policy.String()+"_mb"] = float64(r.bytes) / 1e6
	}
	return &Outcome{ID: "A1", Title: "Ablation — fan-out policy", Rendered: rendered, Metrics: metrics}, nil
}

// AblationGateways compares the paper's concentrated gateway placement
// with a counterfactual fully dispersed placement — the mechanism the
// paper identifies behind Figs. 2-3.
func AblationGateways(seed uint64, sc Scale) (*Outcome, error) {
	nodes, blocks, peers := networkScale(ScaleSmall)
	if sc != ScaleSmall {
		nodes, blocks, peers = 600, 300, 60
	}
	run := func(disperse bool) (map[string]float64, error) {
		cfg := core.DefaultCampaignConfig(seed)
		cfg.NetworkNodes = nodes
		cfg.Blocks = blocks
		cfg.Streaming = true
		cfg.Measurement = core.PaperMeasurementSpecs(peers)
		if disperse {
			everywhere := geo.Regions()
			for i := range cfg.Mining.Pools {
				cfg.Mining.Pools[i].GatewayRegions = everywhere
			}
		}
		res, err := core.RunCampaign(cfg)
		if err != nil {
			return nil, err
		}
		first, err := analysis.FirstObservations(res.Index)
		if err != nil {
			return nil, err
		}
		return first.Share, nil
	}
	paper, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("concentrated: %w", err)
	}
	dispersed, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("dispersed: %w", err)
	}
	rendered := "Ablation — mining-pool gateway placement (share of first observations)\n"
	rendered += fmt.Sprintf("  %-12s %8s %8s %8s %8s\n", "placement", "EA", "NA", "WE", "CE")
	rendered += fmt.Sprintf("  %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "paper", paper["EA"]*100, paper["NA"]*100, paper["WE"]*100, paper["CE"]*100)
	rendered += fmt.Sprintf("  %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "dispersed", dispersed["EA"]*100, dispersed["NA"]*100, dispersed["WE"]*100, dispersed["CE"]*100)
	rendered += "  Concentrated Asian gateways produce the EA first-observation\n  advantage; dispersing gateways flattens it (the paper's Fig. 2 cause).\n"
	return &Outcome{
		ID:       "A2",
		Title:    "Ablation — gateway placement",
		Rendered: rendered,
		Metrics: map[string]float64{
			"paper_EA":     paper["EA"],
			"dispersed_EA": dispersed["EA"],
		},
	}, nil
}
