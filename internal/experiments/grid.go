package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/mining"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// A grid is one cross-run ablation: change one thing, hold the seed,
// compare. Each variant mutates the same base configuration, runs at
// the spec's seed, and is read through rows of the output table; the
// spec renders one variants × columns table and emits
// `<variant>_<metric>` keys.
//
// Grids are Go values rather than scenario files: their sizes are
// per-scale step tables (the fault and relay columns of sizes) that one
// scale multiplier cannot express, D1/D2's fault schedules are
// fractions of the horizon, and scenario imports this package.
type grid struct {
	id, title string
	// base is the overlay campaign every variant mutates. A grid
	// without one is chain-only and runs blocks(sc) heights; its
	// variants mutate only the Mining section.
	base   func(seed uint64, sc Scale) core.CampaignConfig
	blocks func(sc Scale) uint64
	// vantages are the measurement nodes the rows report on (nil:
	// every one, in attachment order).
	vantages []string
	variants []variant
	columns  []column
	// note closes the rendered table.
	note string
	// cost is the spec's Spec.Cost.
	cost uint64
}

// variant is one arm of a grid: a label (the metric prefix) and one
// change to the base configuration; nil runs the base as it is.
type variant struct {
	label  string
	mutate func(*core.CampaignConfig)
}

// column reads one metric of one output row. unit "kb" or "mb" scales
// a byte count and names the metric after the unit in place of
// "bytes" (total_bytes → total_mb).
type column struct {
	row, key, unit string
}

// metric is the column's key in the grid's metrics and table header.
func (c column) metric() string {
	if c.unit == "" {
		return c.key
	}
	return strings.Replace(c.key, "bytes", c.unit, 1)
}

// unitScale divides a byte count into a column's unit.
var unitScale = map[string]float64{"kb": 1e3, "mb": 1e6}

// grids is every registered cross-run ablation, in catalog order.
var grids = []grid{
	{id: "L1", title: "Lesson 1 — restricted uncle rule ablation",
		cost:   161_110,
		blocks: func(sc Scale) uint64 { return sc.size().chainBlocks / 4 },
		variants: []variant{
			{"standard", nil},
			{"restricted", func(c *core.CampaignConfig) { c.Mining.Uncles.RestrictOneMinerUncles = true }},
		},
		columns: []column{{"one_miner_forks", "recognized_fraction", ""}, {"forks", "uncle_blocks", ""}},
		note: "  The restriction removes the reward for mining multiple versions of\n" +
			"  one's own block (the ~1% of mining power the paper estimates).\n"},
	{id: "E1", title: "§III-C3 — empty-block spread scenario",
		cost: 25_274_296,
		base: workloadConfig,
		variants: []variant{
			{"today", nil},
			{"spread", func(c *core.CampaignConfig) {
				for i := range c.Mining.Pools {
					c.Mining.Pools[i].EmptyBlockProb = 0.30
				}
			}},
		},
		columns: []column{{"commit_times", "inclusion_median_s", ""}, {"commit_times", "inclusion_p90_s", ""}},
		note: "  Every pool mining 30% of its blocks empty pushes waiting transactions\n" +
			"  to later blocks; the penalty grows with adoption.\n"},
	{id: "A1", title: "Ablation — dissemination fan-out policy",
		cost: 2_139_863,
		base: func(seed uint64, sc Scale) core.CampaignConfig {
			cfg := networkConfig(seed, ScaleSmall)
			if sc != ScaleSmall {
				cfg.NetworkNodes, cfg.Blocks = 500, 250
			}
			cfg.Measurement = append(core.PaperMeasurementSpecs(40),
				core.MeasurementSpec{Name: "D25", Region: geo.WesternEurope, Peers: 25})
			return cfg
		},
		vantages: []string{"D25"},
		variants: relayVariants(relay.SqrtPush, relay.PushAll, relay.AnnounceOnly),
		columns: []column{{"propagation", "median_ms", ""}, {"redundancy", "whole_mean", ""},
			{"transport", "bytes", "mb"}},
	},
	{id: "A2", title: "Ablation — gateway placement",
		cost: 1_272_474,
		base: func(seed uint64, sc Scale) core.CampaignConfig {
			cfg := networkConfig(seed, ScaleSmall)
			if sc != ScaleSmall {
				cfg.NetworkNodes, cfg.Blocks, cfg.Measurement = 600, 300, core.PaperMeasurementSpecs(60)
			}
			return cfg
		},
		vantages: paperVantages,
		variants: []variant{
			{"paper", nil},
			{"dispersed", func(c *core.CampaignConfig) {
				for i := range c.Mining.Pools {
					c.Mining.Pools[i].GatewayRegions = geo.Regions()
				}
			}},
		},
		columns: []column{{"first_observation", "EA_share", ""}, {"first_observation", "NA_share", ""},
			{"first_observation", "WE_share", ""}, {"first_observation", "CE_share", ""}},
		note: "  Concentrated Asian gateways produce the EA first-observation\n" +
			"  advantage; dispersing them flattens it (the paper's Fig. 2 cause).\n"},
	{id: "D1", title: "Dependability — crash/recover propagation delay",
		cost: 230_687,
		base: faultCampaignConfig,
		variants: []variant{
			{"healthy", nil},
			// ~25 outages over the run, each ~45 s: enough overlap that
			// routes keep dying mid-propagation.
			{"faulted", func(c *core.CampaignConfig) {
				c.Faults = &faults.Config{Crash: &faults.Crash{MeanBetween: horizonFor(*c) / 25, MeanDowntime: 45 * sim.Second}}
			}},
		},
		columns: []column{{"propagation", "median_ms", ""}, {"propagation", "p95_ms", ""}, {"propagation", "p99_ms", ""},
			{"availability", "availability", ""}, {"availability", "crashes", ""}, {"availability", "dropped_messages", ""}},
	},
	{id: "D2", title: "Dependability — partition-heal fork rate",
		cost: 232_829,
		base: faultCampaignConfig,
		variants: []variant{
			{"healthy", nil},
			// Eastern Asia + Oceania cut off for the second quarter of
			// the run, then healed.
			{"partitioned", func(c *core.CampaignConfig) {
				h := horizonFor(*c)
				c.Faults = &faults.Config{Partitions: []faults.Partition{
					{Start: h / 4, Duration: h / 4, Regions: []geo.Region{geo.EasternAsia, geo.Oceania}}}}
			}},
		},
		columns: []column{{"forks", "main_blocks", ""}, {"forks", "uncle_blocks", ""}, {"forks", "unrecognized", ""},
			{"forks", "fork_rate", ""}, {"availability", "partition_s", ""},
			{"availability", "dropped_messages", ""}, {"availability", "max_quiet_gap_s", ""}},
		note: "  Pools on opposite sides of the cut extend their own heads, so the\n" +
			"  chain collects competing branches the healthy run never produces.\n"},
	{id: "D3", title: "Dependability — churn sweep",
		cost:     375_235,
		base:     faultCampaignConfig,
		variants: []variant{{"static", nil}, churn("moderate", 60), churn("heavy", 240)},
		columns: []column{{"propagation", "median_ms", ""}, {"propagation", "p99_ms", ""},
			{"availability", "joins", ""}, {"availability", "leaves", ""}, {"availability", "dropped_messages", ""}},
		note: "  Gossip redundancy absorbs moderate turnover; only aggressive\n" +
			"  churn moves the delay profile (the paper's §III-A2 argument).\n"},
	{id: "R1", title: "Relay protocols — bandwidth/delay shoot-out",
		cost:     26_218_391,
		base:     relayConfig,
		variants: relayVariants(relay.Modes()...),
		columns: []column{{"propagation", "median_ms", ""}, {"propagation", "p95_ms", ""},
			{"bandwidth", "total_bytes", "mb"}, {"bandwidth", "bytes_per_block", "kb"},
			{"bandwidth", "total_messages", ""}, {"bandwidth", "reconstruct_hit_rate", ""}},
		note: "  The push/announce split sets the delay floor; what the push wave\n" +
			"  carries sets the byte budget.\n"},
	{id: "R2", title: "Relay protocols — compact-relay mempool-divergence sweep",
		cost:     24_745_953,
		base:     relayConfig,
		variants: divergenceVariants(0, 0.15, 0.3, 0.6),
		columns: []column{{"propagation", "median_ms", ""}, {"bandwidth", "bytes_per_block", "kb"},
			{"bandwidth", "reconstruct_hit_rate", ""}, {"bandwidth", "reconstruct_full", ""},
			{"bandwidth", "reconstruct_roundtrip", ""}, {"bandwidth", "reconstruct_fallback", ""}},
		note: "  Reconstruction is a bet on mempool overlap: private order flow is\n" +
			"  the knob that voids it.\n"},
}

// relayVariants runs one variant per relay discipline, labelled by it.
func relayVariants(modes ...relay.Mode) []variant {
	var vs []variant
	for _, m := range modes {
		vs = append(vs, variant{m.String(), func(c *core.CampaignConfig) { c.Relay = relay.Config{Mode: m} }})
	}
	return vs
}

// divergenceVariants runs the compact discipline at each fraction of
// transactions submitted straight to miners, never gossiped.
func divergenceVariants(private ...float64) []variant {
	var vs []variant
	for _, p := range private {
		vs = append(vs, variant{fmt.Sprintf("p%02.0f", p*100), func(c *core.CampaignConfig) {
			c.Relay = relay.Config{Mode: relay.Compact}
			c.Workload.PrivateProb = p
		}})
	}
	return vs
}

// churn joins or removes a node every horizon/div on average.
func churn(label string, div sim.Time) variant {
	return variant{label, func(c *core.CampaignConfig) {
		c.Faults = &faults.Config{Churn: &faults.Churn{MeanBetween: horizonFor(*c) / div}}
	}}
}

// run runs the variants in order at one seed. Each variant's run is
// dropped once its columns are read.
func (g *grid) run(seed uint64, sc Scale) ([]*Outcome, error) {
	metrics := map[string]float64{}
	cells := [][]string{{"variant"}}
	for _, c := range g.columns {
		cells[0] = append(cells[0], c.metric())
	}
	for _, v := range g.variants {
		row, err := g.runVariant(seed, sc, v, metrics)
		if err != nil {
			return nil, fmt.Errorf("grid %s, variant %s: %w", g.id, v.label, err)
		}
		cells = append(cells, row)
	}
	var size string
	if g.base != nil {
		cfg := g.base(seed, sc)
		size = fmt.Sprintf("%d nodes, %d blocks", cfg.NetworkNodes, cfg.Blocks)
	} else {
		size = fmt.Sprintf("%d blocks", g.blocks(sc))
	}
	rendered := fmt.Sprintf("%s (%s)\n%s%s", g.title, size, renderCells(cells), g.note)
	return []*Outcome{{ID: g.id, Title: g.title, Rendered: rendered, Metrics: metrics}}, nil
}

// runVariant runs one variant, adds its metrics and returns its table
// row. A column whose row needs faults or a workload the variant does
// not carry reads "-"; a column naming a metric its row did not emit
// is an error.
func (g *grid) runVariant(seed uint64, sc Scale, v variant, metrics map[string]float64) ([]string, error) {
	var cfg core.CampaignConfig
	if g.base != nil {
		cfg = g.base(seed, sc)
		if v.mutate != nil {
			v.mutate(&cfg)
		}
	}
	var names []string
	for _, c := range g.columns {
		o, _ := LookupOutput(c.row)
		if (!o.NeedsFaults || cfg.Faults != nil) && (!o.NeedsWorkload || cfg.Workload != nil) && !slices.Contains(names, c.row) {
			names = append(names, c.row)
		}
	}
	var outs []*Outcome
	var err error
	if g.base != nil {
		outs, err = CampaignOutputs(cfg, g.vantages, names)
	} else {
		outs, err = ChainOutputs(seed, g.blocks(sc), func(m *mining.Config) error {
			if v.mutate != nil {
				cfg.Mining = *m
				v.mutate(&cfg)
				*m = cfg.Mining
			}
			return nil
		}, names)
	}
	if err != nil {
		return nil, err
	}
	row := []string{v.label}
	for _, c := range g.columns {
		i := slices.Index(names, c.row)
		if i < 0 {
			row = append(row, "-")
			continue
		}
		x, ok := outs[i].Metrics[c.key]
		if !ok {
			return nil, fmt.Errorf("row %s emits no metric %q", c.row, c.key)
		}
		if d, ok := unitScale[c.unit]; ok {
			x /= d
		}
		metrics[v.label+"_"+c.metric()] = x
		row = append(row, cell(x))
	}
	return row, nil
}

// cell formats one reading: whole numbers in full, others to four
// significant digits.
func cell(x float64) string {
	if x == math.Trunc(x) || math.Abs(x) >= 1e4 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// renderCells lays a table out in columns: the first left-aligned, the
// rest right-aligned.
func renderCells(cells [][]string) string {
	width := make([]int, len(cells[0]))
	for _, r := range cells {
		for j, s := range r {
			width[j] = max(width[j], len(s))
		}
	}
	var b strings.Builder
	for _, r := range cells {
		fmt.Fprintf(&b, "  %-*s", width[0], r[0])
		for j, s := range r[1:] {
			fmt.Fprintf(&b, "  %*s", width[j+1], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// faultCampaignConfig is the dependability grids' healthy baseline.
func faultCampaignConfig(seed uint64, sc Scale) core.CampaignConfig {
	cfg := core.DefaultCampaignConfig(seed)
	cfg.NetworkNodes, cfg.Blocks = sc.size().faultNodes, sc.size().faultBlocks
	cfg.Streaming = true
	return cfg
}

// horizonFor estimates a campaign's virtual horizon from its block
// budget at its configured inter-block mean, anchoring fault schedules
// to the run's length at every scale.
func horizonFor(cfg core.CampaignConfig) sim.Time {
	return sim.Time(cfg.Blocks) * cfg.Mining.InterBlockMean
}

// relayConfig is the relay grids' campaign: an overlay with a live
// transaction workload (compact reconstruction is only interesting when
// blocks carry transactions).
func relayConfig(seed uint64, sc Scale) core.CampaignConfig {
	cfg := networkConfig(seed, sc)
	cfg.NetworkNodes, cfg.Blocks = sc.size().relayNodes, sc.size().relayBlocks
	cfg.Measurement = core.PaperMeasurementSpecs(40)
	wl := txgen.DefaultConfig()
	wl.Senders = 600
	wl.MeanInterArrival = 500 * sim.Millisecond // ~2 tx/s, ~26 tx/block
	cfg.Workload = &wl
	return cfg
}

// CompactRelaySpread runs one compact-relay overlay campaign with
// moderately divergent mempools — the repo benchmark's `compact` spec
// (bench/workloads.go), exercising sketch pushes, reconstruction,
// missing-tx round trips and the bandwidth accounting end to end.
func CompactRelaySpread(seed uint64, sc Scale) (*core.CampaignResult, error) {
	cfg := relayConfig(seed, sc)
	cfg.Relay = relay.Config{Mode: relay.Compact}
	cfg.Workload.PrivateProb = 0.15
	return core.RunCampaign(cfg)
}
