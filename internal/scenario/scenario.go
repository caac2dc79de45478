// Package scenario adds a declarative front-end to the experiment
// registry: JSON files describing a full experiment — regions and
// node counts, peer topology, pool hashrate shares and behaviors,
// transaction workload, chain parameters — are validated, optionally
// expanded over parameter sweeps (one file, many variants), and
// compiled into experiments.Spec values that run on the parallel
// campaign runner exactly like the built-in paper specs.
//
// The flow mirrors what cmd/ethrepro does with built-ins:
//
//	set, err := scenario.Load("examples/scenarios/paper-baseline.json")
//	specs, err := set.Compile()
//	all, err := experiments.Merge(experiments.Specs(), specs...)
//
// Every compiled Spec.Run is a pure function of (seed, scale), so
// scenario campaigns inherit the runner's determinism contract:
// byte-identical artifacts at any -parallel setting.
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
)

// Scenario modes.
const (
	// ModeNetwork runs a full overlay campaign (core.RunCampaign):
	// gossip, measurement nodes, optional transaction workload.
	ModeNetwork = "network"
	// ModeChain runs the mining model only (core.RunChainOnly):
	// chain-level statistics at 10-100x the block throughput.
	ModeChain = "chain"
)

// Scenario is one resolved experiment description — the file schema
// with any sweep bindings already applied. Field names are the JSON
// schema documented in EXPERIMENTS.md.
type Scenario struct {
	// Name is the registry ID stem. It must be lowercase
	// alphanumeric plus [._-] so variant IDs stay selectable via
	// ethrepro -only (the sweep separator characters @+=, are
	// reserved).
	Name string `json:"name"`
	// Title labels the scenario in -list output (default: Name).
	Title string `json:"title,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Mode selects the execution substrate: "network" (default) or
	// "chain".
	Mode string `json:"mode,omitempty"`
	// Network configures the overlay (network mode only).
	Network *NetworkSection `json:"network,omitempty"`
	// Chain configures block production (both modes).
	Chain *ChainSection `json:"chain,omitempty"`
	// Pools overrides the paper's pool registry. Empty keeps
	// mining.PaperPools.
	Pools []PoolSection `json:"pools,omitempty"`
	// NormalizeShares rescales pool shares to sum to 1, letting a
	// sweep vary one pool's share without re-balancing the others.
	NormalizeShares bool `json:"normalize_shares,omitempty"`
	// Measurement lists instrumented nodes (network mode; default:
	// the paper's four vantage points with unlimited peers).
	Measurement []MeasurementSection `json:"measurement,omitempty"`
	// Workload enables a transaction workload (network mode only).
	Workload *WorkloadSection `json:"workload,omitempty"`
	// Faults injects dependability events into the campaign (network
	// mode only): crash/recover, partitions, link loss, churn.
	Faults *FaultsSection `json:"faults,omitempty"`
	// Outputs selects the analyses to run; see experiments.OutputNames. Default:
	// propagation+first_observation (network), forks+sequences
	// (chain).
	Outputs []string `json:"outputs,omitempty"`
	// Repeats suggests a repeat count to the runner; ethrepro uses it
	// when -repeats is not given explicitly.
	Repeats int `json:"repeats,omitempty"`
	// ScaleFactors maps scale names (small|medium|paper|stress|
	// stress100k) to multipliers applied to node and block counts.
	// The file's literal numbers are the medium scale; defaults are
	// {small: 0.25, medium: 1, paper: 2, stress: 8, stress100k: 80}.
	ScaleFactors map[string]float64 `json:"scale_factors,omitempty"`
}

// NetworkSection sizes and wires the overlay.
type NetworkSection struct {
	// Nodes is the overlay size at medium scale.
	Nodes int `json:"nodes"`
	// Degree is each node's dial-out count (default 8).
	Degree int `json:"degree,omitempty"`
	// Push is the legacy dissemination-policy spelling: "sqrt"
	// (default), "all" or "announce". Superseded by the relay section;
	// setting both is an error.
	Push string `json:"push,omitempty"`
	// Relay selects and parameterizes the block-relay protocol. Its
	// fields are sweepable (e.g. a "network.relay.protocol" axis runs
	// one scenario file across protocols).
	Relay *RelaySection `json:"relay,omitempty"`
	// NodeShare distributes nodes across regions, keyed by region
	// abbreviation (NA, EA, WE, CE, SA, OC). Shares must sum to ~1;
	// default geo.DefaultNodeShare.
	NodeShare map[string]float64 `json:"node_share,omitempty"`
}

// RelaySection configures the block-relay discipline (relay.Config in
// schema form).
type RelaySection struct {
	// Protocol names the discipline: sqrt-push (default), push-all,
	// announce-only, compact or hybrid.
	Protocol string `json:"protocol,omitempty"`
	// PushFraction is the hybrid protocol's full-body push fan-out
	// fraction (0,1]; nil keeps relay.DefaultPushFraction.
	PushFraction *float64 `json:"push_fraction,omitempty"`
	// FallbackThreshold is the compact protocol's missing-transaction
	// fraction above which it fetches the full body; nil keeps
	// relay.DefaultFallbackThreshold.
	FallbackThreshold *float64 `json:"fallback_threshold,omitempty"`
}

// ChainSection sets block-production parameters.
type ChainSection struct {
	// Blocks is the number of block heights at medium scale.
	Blocks uint64 `json:"blocks"`
	// InterBlockMS is the mean inter-block time in milliseconds
	// (default 13300, post-Constantinople mainnet).
	InterBlockMS int64 `json:"inter_block_ms,omitempty"`
	// GatewayDelayMS is the base gateway-to-gateway delay; nil keeps
	// the default 150 ms, an explicit 0 strips it (whole-chain runs).
	GatewayDelayMS *int64 `json:"gateway_delay_ms,omitempty"`
	// GasLimit is the block gas limit (default 8M).
	GasLimit uint64 `json:"gas_limit,omitempty"`
	// InitialDifficulty seeds the genesis difficulty.
	InitialDifficulty uint64 `json:"initial_difficulty,omitempty"`
	// RestrictOneMinerUncles applies the paper's §V Lesson-1 rule.
	RestrictOneMinerUncles bool `json:"restrict_one_miner_uncles,omitempty"`
}

// PoolSection describes one mining pool (mining.PoolConfig in schema
// form).
type PoolSection struct {
	Name string `json:"name"`
	// Share is the hashrate fraction (weights when normalize_shares).
	Share float64 `json:"share"`
	// Gateways lists gateway region abbreviations.
	Gateways []string `json:"gateways"`
	// EmptyBlockProb, MultiVersionProb, MultiVersionSameTxProb are
	// the selfish-behavior probabilities (§III-C3, §III-C5).
	EmptyBlockProb         float64 `json:"empty_block_prob,omitempty"`
	MultiVersionProb       float64 `json:"multi_version_prob,omitempty"`
	MultiVersionSameTxProb float64 `json:"multi_version_same_tx_prob,omitempty"`
	// SwitchDelayMS is the worker head-switch delay; nil keeps the
	// calibrated 850 ms, explicit 0 strips it.
	SwitchDelayMS *int64 `json:"switch_delay_ms,omitempty"`
	// Withholder runs the §III-D private-chain burst strategy.
	Withholder bool `json:"withholder,omitempty"`
}

// MeasurementSection places one instrumented node.
type MeasurementSection struct {
	Name   string `json:"name"`
	Region string `json:"region"`
	// Peers is the connection count; 0 means unlimited (the paper's
	// primary nodes).
	Peers int `json:"peers,omitempty"`
}

// FaultsSection configures the fault injector (internal/faults in
// schema form). Every subsection is optional; at least one must be
// present.
type FaultsSection struct {
	Crash      *CrashSection      `json:"crash,omitempty"`
	Partitions []PartitionSection `json:"partitions,omitempty"`
	Loss       *LossSection       `json:"loss,omitempty"`
	Churn      *ChurnSection      `json:"churn,omitempty"`
}

// CrashSection drives the crash/recover process.
type CrashSection struct {
	// MeanBetweenMS is the mean interval between crash events across
	// the overlay.
	MeanBetweenMS int64 `json:"mean_between_ms"`
	// MeanDowntimeMS is the mean outage duration.
	MeanDowntimeMS int64 `json:"mean_downtime_ms"`
	// MaxCrashes bounds total crashes (0 = unlimited).
	MaxCrashes int `json:"max_crashes,omitempty"`
}

// PartitionSection is one scheduled region split that heals.
type PartitionSection struct {
	// AtMS is the split's start time.
	AtMS int64 `json:"at_ms"`
	// DurationMS is how long the split lasts before healing.
	DurationMS int64 `json:"duration_ms"`
	// Regions is the isolated side (region abbreviations).
	Regions []string `json:"regions"`
}

// LossSection degrades links.
type LossSection struct {
	// DropProb is the per-message drop probability.
	DropProb float64 `json:"drop_prob,omitempty"`
	// ExtraDelayMeanMS adds an exponential extra delay per message.
	ExtraDelayMeanMS int64 `json:"extra_delay_mean_ms,omitempty"`
}

// ChurnSection drives continuous join/leave membership change.
type ChurnSection struct {
	// MeanBetweenMS is the mean interval between churn events.
	MeanBetweenMS int64 `json:"mean_between_ms"`
	// JoinFraction is the probability an event is a join (default 0.5).
	JoinFraction *float64 `json:"join_fraction,omitempty"`
	// MaxEvents bounds total churn events (0 = unlimited).
	MaxEvents int `json:"max_events,omitempty"`
}

// WorkloadSection enables the transaction generator; zero fields keep
// txgen.DefaultConfig values.
type WorkloadSection struct {
	Senders            int      `json:"senders,omitempty"`
	MeanInterarrivalMS int64    `json:"mean_interarrival_ms,omitempty"`
	ZipfExponent       float64  `json:"zipf_exponent,omitempty"`
	OutOfOrderProb     *float64 `json:"out_of_order_prob,omitempty"`
	MeanGasPrice       uint64   `json:"mean_gas_price,omitempty"`
	// PrivateProb is the fraction of transactions submitted directly
	// to miners without entering gossip — the mempool-divergence knob
	// for compact-relay sweeps.
	PrivateProb *float64 `json:"private_prob,omitempty"`
}

// Default scale multipliers: the file's literal sizes are medium. The
// stress tier is the 1k-10k-node knob: a scenario written at ~1k
// nodes reaches 10k-node territory via `ethrepro -scale stress`
// without a separate file.
var defaultScaleFactors = map[string]float64{
	"small":      0.25,
	"medium":     1,
	"paper":      2,
	"stress":     8,
	"stress100k": 80,
}

// RunMode returns the effective execution mode (Mode, defaulted).
func (s *Scenario) RunMode() string {
	if s.Mode == "" {
		return ModeNetwork
	}
	return s.Mode
}

// title returns the effective display title.
func (s *Scenario) title() string {
	if s.Title != "" {
		return s.Title
	}
	return s.Name
}

// parseRegion resolves a region abbreviation or long name.
func parseRegion(name string) (geo.Region, error) {
	for _, r := range geo.Regions() {
		if strings.EqualFold(r.String(), name) || strings.EqualFold(r.Name(), name) {
			return r, nil
		}
	}
	var known []string
	for _, r := range geo.Regions() {
		known = append(known, r.String())
	}
	return 0, fmt.Errorf("unknown region %q (known: %s)", name, strings.Join(known, ", "))
}

// relayConfig resolves the effective relay protocol configuration
// from the relay section and the legacy "push" spelling.
func (s *Scenario) relayConfig() (relay.Config, error) {
	var cfg relay.Config
	if s.Network == nil {
		return cfg, nil
	}
	r := s.Network.Relay
	if s.Network.Push != "" && r != nil && r.Protocol != "" {
		return cfg, fmt.Errorf("scenario %s: network.push and network.relay.protocol both set — use the relay section", s.Name)
	}
	name := s.Network.Push
	if r != nil && r.Protocol != "" {
		name = r.Protocol
	}
	mode, err := relay.ParseMode(name)
	if err != nil {
		return cfg, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	cfg.Mode = mode
	if r != nil {
		// The schema pointers distinguish set from unset; an explicit 0
		// would be silently coerced to the package default downstream
		// (relay.Config treats zero as "default"), so reject it here.
		if r.PushFraction != nil {
			if *r.PushFraction <= 0 || *r.PushFraction > 1 {
				return cfg, fmt.Errorf("scenario %s: relay.push_fraction %v outside (0,1]", s.Name, *r.PushFraction)
			}
			cfg.PushFraction = *r.PushFraction
		}
		if r.FallbackThreshold != nil {
			if *r.FallbackThreshold <= 0 || *r.FallbackThreshold > 1 {
				return cfg, fmt.Errorf("scenario %s: relay.fallback_threshold %v outside (0,1]", s.Name, *r.FallbackThreshold)
			}
			cfg.FallbackThreshold = *r.FallbackThreshold
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return cfg, nil
}

// millis converts a schema millisecond count to sim.Time.
func millis(ms int64) sim.Time { return sim.Time(ms) * sim.Millisecond }
