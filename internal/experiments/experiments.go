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
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mining"
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

// sizing is one scale's every size decision: each experiment family
// reads its own fields, and nothing else in the package switches on a
// Scale.
type sizing struct {
	// nodes and blocks size the Figs. 1-3 overlay campaign; peers caps
	// each vantage's peering (0: unlimited).
	nodes  int
	blocks uint64
	peers  int
	// chainBlocks is the chain-only Monte-Carlo's length.
	chainBlocks uint64
	// wholeChainBlocks sizes the long-horizon Monte-Carlo (§III-D's
	// whole-chain sweep; mainnet had ~7.7M blocks at measurement time).
	wholeChainBlocks uint64
	// workloadNodes and workloadBlocks size the Figs. 4-5 transaction
	// workload campaign.
	workloadNodes  int
	workloadBlocks uint64
	// faultNodes and faultBlocks size the dependability campaigns:
	// small enough that the healthy+faulted pair stays CI-friendly,
	// large enough that region structure and fan-out redundancy are
	// representative.
	faultNodes  int
	faultBlocks uint64
	// relayNodes and relayBlocks size the relay grids' campaign: the
	// network overlay's, with the block budget capped at 400, since
	// each grid runs one campaign per protocol or divergence point.
	relayNodes  int
	relayBlocks uint64
}

// sizes holds each Scale's sizing, in constant order.
var sizes = [...]sizing{
	ScaleSmall - 1: {
		nodes: 250, blocks: 150,
		chainBlocks: 20_000, wholeChainBlocks: 100_000,
		workloadNodes: 100, workloadBlocks: 150,
		faultNodes: 150, faultBlocks: 60,
		// Transaction gossip dominates a relay campaign's cost, so the
		// small tier shrinks below the network overlay.
		relayNodes: 120, relayBlocks: 60,
	},
	ScaleMedium - 1: {
		nodes: 800, blocks: 500,
		// 201,086 blocks: the paper's one-month main-chain length.
		chainBlocks: 201_086, wholeChainBlocks: 1_000_000,
		workloadNodes: 200, workloadBlocks: 400,
		faultNodes: 400, faultBlocks: 240,
		relayNodes: 800, relayBlocks: 400,
	},
	ScalePaper - 1: {
		nodes: 2000, blocks: 1500,
		chainBlocks: 201_086, wholeChainBlocks: 7_680_658,
		workloadNodes: 400, workloadBlocks: 800,
		faultNodes: 1000, faultBlocks: 500,
		relayNodes: 2000, relayBlocks: 400,
	},
	ScaleStress - 1: {
		// An order of magnitude past the paper's overlay: the pooled
		// event engine holds this in memory because measurement is
		// streaming and per-node caches are bounded.
		nodes: 10_000, blocks: 200,
		chainBlocks: 201_086, wholeChainBlocks: 2_000_000,
		// The workload tier measures commit latency, not overlay scale.
		workloadNodes: 1000, workloadBlocks: 1200,
		faultNodes: 4000, faultBlocks: 120,
		relayNodes: 10_000, relayBlocks: 200,
	},
	ScaleStress100k - 1: {
		// Mainnet-order overlay over a short horizon. Measurement
		// peering is capped (not "unlimited") so vantage reception
		// volume stays bounded while the overlay does the scaling.
		nodes: 100_000, blocks: 40, peers: 2000,
		chainBlocks: 201_086, wholeChainBlocks: 2_000_000,
		// The 100k tier stresses the network experiments only.
		workloadNodes: 1000, workloadBlocks: 1200,
		// The dependability campaigns have no 100k tier of their own:
		// they run at the stress tier's size, the largest one they have.
		faultNodes: 4000, faultBlocks: 120,
		relayNodes: 100_000, relayBlocks: 40,
	},
}

// size returns the scale's sizing; a value outside the declared scales
// sizes as ScaleSmall.
func (s Scale) size() sizing {
	if s < ScaleSmall || int(s) > len(sizes) {
		s = ScaleSmall
	}
	return sizes[s-1]
}

// paperVantages are the paper's four vantage points in its figures'
// column order.
var paperVantages = []string{"EA", "NA", "WE", "CE"}

// The built-in "campaign plus outputs" specs: each runs one campaign and
// reads the named rows of the output table from it.
var (
	networkOutputs = []string{"propagation", "first_observation", "pool_first_observation"}
	table2Outputs  = []string{"redundancy"}
	commitOutputs  = []string{"commit_times", "reordering"}
	chainOutputs   = []string{"empty_blocks", "forks", "one_miner_forks", "sequences"}
)

// networkConfig is the shared Figs. 1-3 campaign. Registry campaigns
// always run streaming: the analyses consume the index, not the raw
// log, so memory stays O(items) at any scale.
func networkConfig(seed uint64, sc Scale) core.CampaignConfig {
	size := sc.size()
	cfg := core.DefaultCampaignConfig(seed)
	cfg.NetworkNodes = size.nodes
	cfg.Blocks = size.blocks
	cfg.Measurement = core.PaperMeasurementSpecs(size.peers)
	cfg.Streaming = true
	return cfg
}

// NetworkExperiments runs one campaign and derives Figs. 1, 2 and 3
// from it (the paper computes all three from the same month of logs).
func NetworkExperiments(seed uint64, sc Scale) ([]*Outcome, error) {
	return CampaignOutputs(networkConfig(seed, sc), paperVantages, networkOutputs)
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
func Table2(seed uint64, sc Scale) ([]*Outcome, error) {
	cfg := networkConfig(seed, sc)
	// One default-configuration node alongside the four primaries,
	// exactly like the paper's subsidiary measurement.
	cfg.Measurement = append(core.PaperMeasurementSpecs(0),
		core.MeasurementSpec{Name: "WE-default", Region: geo.WesternEurope, Peers: 25})
	return CampaignOutputs(cfg, []string{"WE-default"}, table2Outputs)
}

// workloadConfig is the Figs. 4-5 campaign: a smaller overlay with a
// live transaction workload (which turns on tx-link capture).
func workloadConfig(seed uint64, sc Scale) core.CampaignConfig {
	cfg := core.DefaultCampaignConfig(seed)
	cfg.NetworkNodes, cfg.Blocks = sc.size().workloadNodes, sc.size().workloadBlocks
	cfg.Degree = 6
	cfg.Measurement = core.PaperMeasurementSpecs(30)
	cfg.Streaming = true
	wl := txgen.DefaultConfig()
	wl.Senders = 600
	wl.MeanInterArrival = 500 * sim.Millisecond // ~2 tx/s, ~26 tx/block
	cfg.Workload = &wl
	return cfg
}

// CommitExperiments runs one workload campaign and derives Figs. 4-5.
func CommitExperiments(seed uint64, sc Scale) ([]*Outcome, error) {
	return CampaignOutputs(workloadConfig(seed, sc), paperVantages, commitOutputs)
}

// settledFold runs a settling chain-only simulation into a fresh
// analysis.ChainFold and returns it, every height fed. mutate, when
// set, adjusts the mining model first, and may arm the fold.
func settledFold(seed, blocks uint64, mutate func(*mining.Config, *analysis.ChainFold)) (*analysis.ChainFold, error) {
	fold := &analysis.ChainFold{}
	_, err := core.RunChainOnly(seed, blocks, func(c *mining.Config) {
		if mutate != nil {
			mutate(c, fold)
		}
		c.OnSettled = fold.Settled
	})
	if err != nil {
		return nil, err
	}
	return fold, nil
}

// ChainExperiments runs one chain-level simulation at the paper's
// month scale and derives Fig. 6, Table III, the one-miner-fork
// analysis and Fig. 7 with its censorship comparison.
func ChainExperiments(seed uint64, sc Scale) ([]*Outcome, error) {
	return ChainOutputs(seed, sc.size().chainBlocks, nil, chainOutputs)
}

// WholeChainExperiment runs the long-horizon sequence census (§III-D's
// look beyond the one-month window). It stays bespoke: a census of one
// run, not a comparison of variants.
func WholeChainExperiment(seed uint64, sc Scale) ([]*Outcome, error) {
	blocks := sc.size().wholeChainBlocks
	// The census reads only the main chain's miner labels (genesis
	// excluded, as in a ChainView), one settled height at a time.
	var census analysis.SequenceFold
	_, err := core.RunChainOnly(seed, blocks, func(c *mining.Config) {
		// Sequence statistics need no forks, uncles or bodies: strip
		// the model to the mining race so millions of blocks stay
		// cheap.
		for i := range c.Pools {
			c.Pools[i].EmptyBlockProb = 0
			c.Pools[i].MultiVersionProb = 0
			c.Pools[i].SwitchDelayMean = 0
		}
		c.GatewayDelay = 0
		c.OnSettled = func(h chain.Height) {
			if h.Main.Header.Number > 0 {
				census.Add(h.Main.Header.MinerLabel)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("whole-chain run: %w", err)
	}
	seq, err := census.Result()
	if err != nil {
		return nil, err
	}
	tail := analysis.WholeChainTail(seq, 8)
	out := &Outcome{
		ID:       "S2",
		Title:    "§III-D — whole-chain sequence tail",
		Rendered: analysis.RenderWholeChainTail(tail, seq.TotalMain),
		Metrics:  map[string]float64{"blocks": float64(seq.TotalMain)},
	}
	for l, n := range tail {
		out.Metrics[fmt.Sprintf("len_%d", l)] = float64(n)
	}
	return []*Outcome{out}, nil
}
