package scenario

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mining"
	"repro/internal/txgen"
)

// Floors applied after scale multipliers so downscaled variants stay
// runnable (core.NewCampaign rejects overlays under 10 nodes).
const (
	minScaledNodes  = 20
	minScaledBlocks = 10
)

// Compile turns every variant of the set into a registry spec, in
// sweep expansion order.
func (set *Set) Compile() ([]experiments.Spec, error) {
	specs := make([]experiments.Spec, 0, len(set.Variants))
	for _, v := range set.Variants {
		sp, err := v.Spec()
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// Spec compiles one variant into an experiments.Spec. The returned
// Run closure reads only the variant's immutable scenario, so it is a
// pure function of (seed, scale) as the runner requires.
func (v *Variant) Spec() (experiments.Spec, error) {
	if err := v.Scenario.Validate(); err != nil {
		return experiments.Spec{}, err
	}
	id := v.ID()
	outputs := v.Scenario.outputs()
	produces := make([]string, 0, len(outputs))
	for _, o := range outputs {
		produces = append(produces, id+"/"+o)
	}
	title := v.Scenario.title()
	if len(v.Bindings) > 0 {
		title += " [" + v.bindingSuffix() + "]"
	}
	run := func(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
		return v.run(seed, sc)
	}
	return experiments.Spec{ID: id, Title: title, Produces: produces, Run: run}, nil
}

// outputs returns the effective output list.
func (s *Scenario) outputs() []string {
	if len(s.Outputs) > 0 {
		return s.Outputs
	}
	if s.RunMode() == ModeChain {
		return []string{"forks", "sequences"}
	}
	return []string{"propagation", "first_observation"}
}

// scaleFactor resolves the multiplier for a runner scale.
func (s *Scenario) scaleFactor(sc experiments.Scale) float64 {
	name := sc.String()
	if f, ok := s.ScaleFactors[name]; ok {
		return f
	}
	if f, ok := defaultScaleFactors[name]; ok {
		return f
	}
	return 1
}

// scaledBlocks applies the scale multiplier to the block budget.
func (s *Scenario) scaledBlocks(sc experiments.Scale) uint64 {
	b := uint64(math.Ceil(float64(s.Chain.Blocks) * s.scaleFactor(sc)))
	if b < minScaledBlocks {
		b = minScaledBlocks
	}
	return b
}

// scaledNodes applies the scale multiplier to the overlay size.
func (s *Scenario) scaledNodes(sc experiments.Scale) int {
	n := int(math.Ceil(float64(s.Network.Nodes) * s.scaleFactor(sc)))
	if n < minScaledNodes {
		n = minScaledNodes
	}
	return n
}

// run executes the variant at one (seed, scale).
func (v *Variant) run(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
	if v.Scenario.RunMode() == ModeChain {
		return v.runChain(seed, sc)
	}
	return v.runNetwork(seed, sc)
}

// applyMining copies the scenario's chain and pool settings onto a
// mining config.
func (v *Variant) applyMining(cfg *mining.Config) error {
	pools, err := v.Scenario.pools()
	if err != nil {
		return err
	}
	cfg.Pools = pools
	if ch := v.Scenario.Chain; ch != nil {
		if ch.InterBlockMS > 0 {
			cfg.InterBlockMean = millis(ch.InterBlockMS)
		}
		if ch.GatewayDelayMS != nil {
			cfg.GatewayDelay = millis(*ch.GatewayDelayMS)
		}
		if ch.GasLimit > 0 {
			cfg.GasLimit = ch.GasLimit
		}
		if ch.InitialDifficulty > 0 {
			cfg.InitialDifficulty = ch.InitialDifficulty
		}
		cfg.Uncles.RestrictOneMinerUncles = ch.RestrictOneMinerUncles
	}
	return nil
}

// runChain executes a chain-only variant: the settling run feeds one
// analysis.ChainFold, which every chain-mode output reads.
func (v *Variant) runChain(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
	outs, err := experiments.ChainOutputs(seed, v.Scenario.scaledBlocks(sc), v.applyMining, v.Scenario.outputs())
	return v.qualify(outs, err)
}

// campaignConfig builds the overlay campaign for one (seed, scale).
func (v *Variant) campaignConfig(seed uint64, sc experiments.Scale) (core.CampaignConfig, error) {
	s := v.Scenario
	cfg := core.DefaultCampaignConfig(seed)
	cfg.NetworkNodes = s.scaledNodes(sc)
	cfg.Blocks = s.scaledBlocks(sc)
	// Scenario campaigns consume the analysis index, never the raw
	// log, so they always run streaming — memory stays O(items) even
	// for stress-scale overlays.
	cfg.Streaming = true
	if s.Network.Degree > 0 {
		cfg.Degree = s.Network.Degree
	}
	rc, err := s.relayConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Relay = rc
	if s.Network.NodeShare != nil {
		share, err := s.nodeShare()
		if err != nil {
			return cfg, err
		}
		cfg.NodeShare = share
	}
	if len(s.Measurement) > 0 {
		cfg.Measurement = cfg.Measurement[:0]
		for _, m := range s.Measurement {
			r, err := parseRegion(m.Region)
			if err != nil {
				return cfg, err
			}
			cfg.Measurement = append(cfg.Measurement, core.MeasurementSpec{
				Name: m.Name, Region: r, Peers: m.Peers,
			})
		}
	}
	if err := v.applyMining(&cfg.Mining); err != nil {
		return cfg, err
	}
	fc, err := s.faultsConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Faults = fc
	if w := s.Workload; w != nil {
		wl := txgen.DefaultConfig()
		if w.Senders > 0 {
			wl.Senders = w.Senders
		}
		if w.MeanInterarrivalMS > 0 {
			wl.MeanInterArrival = millis(w.MeanInterarrivalMS)
		}
		if w.ZipfExponent > 0 {
			wl.ZipfExponent = w.ZipfExponent
		}
		if w.OutOfOrderProb != nil {
			wl.OutOfOrderProb = *w.OutOfOrderProb
		}
		if w.MeanGasPrice > 0 {
			wl.MeanGasPrice = w.MeanGasPrice
		}
		if w.PrivateProb != nil {
			wl.PrivateProb = *w.PrivateProb
		}
		cfg.Workload = &wl
	}
	return cfg, nil
}

// runNetwork executes a full overlay variant.
func (v *Variant) runNetwork(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
	cfg, err := v.campaignConfig(seed, sc)
	if err != nil {
		return nil, err
	}
	outs, err := experiments.CampaignOutputs(cfg, nil, v.Scenario.outputs())
	return v.qualify(outs, err)
}

// qualify prefixes every outcome ID with the variant ID, so sweep
// variants aggregate separately.
func (v *Variant) qualify(outs []*experiments.Outcome, err error) ([]*experiments.Outcome, error) {
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", v.ID(), err)
	}
	for i, o := range outs {
		o.ID = v.ID() + "/" + v.Scenario.outputs()[i]
	}
	return outs, nil
}
