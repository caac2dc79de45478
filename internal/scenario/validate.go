package scenario

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/mining"
)

// namePattern keeps scenario names usable as registry IDs: the sweep
// separators (@ + = ,) and whitespace are reserved by variant IDs and
// the -only flag.
var namePattern = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// Validate checks every scenario invariant the compiler relies on:
// the same class of checks mining.ValidatePools applies to pool
// registries, extended to topology, workload and output selection.
func (s *Scenario) Validate() error {
	if !namePattern.MatchString(s.Name) {
		return fmt.Errorf("scenario: name %q must match %s", s.Name, namePattern)
	}
	switch s.RunMode() {
	case ModeNetwork, ModeChain:
	default:
		return fmt.Errorf("scenario %s: unknown mode %q (network|chain)", s.Name, s.Mode)
	}
	if s.Chain == nil || s.Chain.Blocks == 0 {
		return fmt.Errorf("scenario %s: chain.blocks must be > 0", s.Name)
	}
	if s.Chain.InterBlockMS < 0 {
		return fmt.Errorf("scenario %s: negative inter_block_ms", s.Name)
	}
	if s.Chain.GatewayDelayMS != nil && *s.Chain.GatewayDelayMS < 0 {
		return fmt.Errorf("scenario %s: negative gateway_delay_ms", s.Name)
	}
	if s.Repeats < 0 {
		return fmt.Errorf("scenario %s: negative repeats", s.Name)
	}
	for name, f := range s.ScaleFactors {
		if _, ok := defaultScaleFactors[name]; !ok {
			return fmt.Errorf("scenario %s: unknown scale %q (small|medium|paper|stress|stress100k)", s.Name, name)
		}
		if f <= 0 {
			return fmt.Errorf("scenario %s: scale factor %s=%v must be > 0", s.Name, name, f)
		}
	}

	// Pool registry: delegate the share/name/region invariants to the
	// same validator the simulator itself runs.
	pools, err := s.pools()
	if err != nil {
		return err
	}
	if err := mining.ValidatePools(pools); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	switch s.RunMode() {
	case ModeChain:
		if s.Network != nil || len(s.Measurement) > 0 || s.Workload != nil || s.Faults != nil {
			return fmt.Errorf("scenario %s: chain mode takes no network/measurement/workload/faults sections", s.Name)
		}
	case ModeNetwork:
		if err := s.validateNetwork(pools); err != nil {
			return err
		}
	}

	return s.validateOutputs()
}

// validateNetwork checks overlay sizing, the region node-share map and
// the measurement deployment.
func (s *Scenario) validateNetwork(pools []mining.PoolConfig) error {
	if s.Network == nil {
		return fmt.Errorf("scenario %s: network mode needs a network section", s.Name)
	}
	if s.Network.Nodes < 20 {
		return fmt.Errorf("scenario %s: network.nodes %d too small (>= 20 so the small scale stays viable)", s.Name, s.Network.Nodes)
	}
	if s.Network.Degree < 0 {
		return fmt.Errorf("scenario %s: negative network.degree", s.Name)
	}
	// Relay protocol and knobs: delegate range checks to the same
	// validator the campaign build runs.
	if _, err := s.relayConfig(); err != nil {
		return err
	}

	share, err := s.nodeShare()
	if err != nil {
		return err
	}
	if s.Network.NodeShare != nil {
		var total float64
		for r, v := range share {
			if v < 0 {
				return fmt.Errorf("scenario %s: negative node share for %s", s.Name, r)
			}
			total += v
		}
		if total < 0.999 || total > 1.001 {
			return fmt.Errorf("scenario %s: node shares sum to %v, want 1", s.Name, total)
		}
	}

	// An omitted measurement section defaults to the paper's vantage
	// points, which must then also have overlay presence.
	if len(s.Measurement) == 0 {
		for _, m := range core.PaperMeasurementSpecs(0) {
			if share[m.Region] <= 0 {
				return fmt.Errorf("scenario %s: default measurement node %s placed in zero-node region (set an explicit measurement section)", s.Name, m.Name)
			}
		}
	}

	seen := map[string]bool{}
	for _, m := range s.Measurement {
		if m.Name == "" {
			return fmt.Errorf("scenario %s: measurement node needs a name", s.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("scenario %s: duplicate measurement node %s", s.Name, m.Name)
		}
		seen[m.Name] = true
		if m.Peers < 0 {
			return fmt.Errorf("scenario %s: measurement node %s has negative peers", s.Name, m.Name)
		}
		r, err := parseRegion(m.Region)
		if err != nil {
			return fmt.Errorf("scenario %s: measurement node %s: %w", s.Name, m.Name, err)
		}
		if share[r] <= 0 {
			return fmt.Errorf("scenario %s: measurement node %s placed in zero-node region %s", s.Name, m.Name, r)
		}
	}

	// Zero-node gateway regions would inject blocks into regions with
	// no overlay presence; reject them like a zero-hashrate typo.
	for _, p := range pools {
		for _, r := range p.GatewayRegions {
			if share[r] <= 0 {
				return fmt.Errorf("scenario %s: pool %s gateways in zero-node region %s", s.Name, p.Name, r)
			}
		}
	}

	if w := s.Workload; w != nil {
		if w.Senders < 0 || w.MeanInterarrivalMS < 0 || w.ZipfExponent < 0 {
			return fmt.Errorf("scenario %s: negative workload parameter", s.Name)
		}
		if w.OutOfOrderProb != nil && (*w.OutOfOrderProb < 0 || *w.OutOfOrderProb > 1) {
			return fmt.Errorf("scenario %s: out_of_order_prob %v outside [0,1]", s.Name, *w.OutOfOrderProb)
		}
		if w.PrivateProb != nil && (*w.PrivateProb < 0 || *w.PrivateProb > 1) {
			return fmt.Errorf("scenario %s: private_prob %v outside [0,1]", s.Name, *w.PrivateProb)
		}
	}

	// Fault schedule: delegate the interval/probability/region
	// invariants to the same validator the injector itself runs.
	if s.Faults != nil {
		fc, err := s.faultsConfig()
		if err != nil {
			return err
		}
		if err := fc.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// faultsConfig builds the faults.Config from the schema. Nil when the
// section is absent.
func (s *Scenario) faultsConfig() (*faults.Config, error) {
	f := s.Faults
	if f == nil {
		return nil, nil
	}
	cfg := &faults.Config{}
	if c := f.Crash; c != nil {
		cfg.Crash = &faults.Crash{
			MeanBetween:  millis(c.MeanBetweenMS),
			MeanDowntime: millis(c.MeanDowntimeMS),
			MaxCrashes:   c.MaxCrashes,
		}
	}
	for i, p := range f.Partitions {
		part := faults.Partition{
			Start:    millis(p.AtMS),
			Duration: millis(p.DurationMS),
		}
		for _, name := range p.Regions {
			r, err := parseRegion(name)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: partition %d: %w", s.Name, i, err)
			}
			part.Regions = append(part.Regions, r)
		}
		cfg.Partitions = append(cfg.Partitions, part)
	}
	if l := f.Loss; l != nil {
		cfg.Loss = &faults.Loss{
			DropProb:       l.DropProb,
			ExtraDelayMean: millis(l.ExtraDelayMeanMS),
		}
	}
	if c := f.Churn; c != nil {
		cfg.Churn = &faults.Churn{
			MeanBetween:  millis(c.MeanBetweenMS),
			JoinFraction: c.JoinFraction,
			MaxEvents:    c.MaxEvents,
		}
	}
	return cfg, nil
}

// validateOutputs checks every requested output exists and is
// compatible with the scenario's mode and workload.
func (s *Scenario) validateOutputs() error {
	seen := map[string]bool{}
	for _, name := range s.outputs() {
		if seen[name] {
			return fmt.Errorf("scenario %s: output %q listed twice", s.Name, name)
		}
		seen[name] = true
		o, ok := experiments.LookupOutput(name)
		if !ok {
			return fmt.Errorf("scenario %s: unknown output %q (known: %s)",
				s.Name, name, strings.Join(experiments.OutputNames(), ", "))
		}
		if s.RunMode() == ModeChain && !o.Chain || s.RunMode() == ModeNetwork && !o.Network {
			return fmt.Errorf("scenario %s: output %q unavailable in %s mode", s.Name, name, s.RunMode())
		}
		if o.NeedsWorkload && s.Workload == nil {
			return fmt.Errorf("scenario %s: output %q needs a workload section", s.Name, name)
		}
		if o.NeedsFaults && s.Faults == nil {
			return fmt.Errorf("scenario %s: output %q needs a faults section", s.Name, name)
		}
	}
	return nil
}

// nodeShare resolves the effective region node-share map.
func (s *Scenario) nodeShare() (map[geo.Region]float64, error) {
	if s.Network == nil || s.Network.NodeShare == nil {
		return geo.DefaultNodeShare, nil
	}
	out := make(map[geo.Region]float64, len(s.Network.NodeShare))
	for name, v := range s.Network.NodeShare {
		r, err := parseRegion(name)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: node_share: %w", s.Name, err)
		}
		if _, dup := out[r]; dup {
			return nil, fmt.Errorf("scenario %s: node_share lists %s twice", s.Name, r)
		}
		out[r] = v
	}
	return out, nil
}

// pools builds the mining.PoolConfig registry from the schema,
// applying normalize_shares. Empty pool lists keep the paper's.
func (s *Scenario) pools() ([]mining.PoolConfig, error) {
	if len(s.Pools) == 0 {
		return mining.PaperPools(), nil
	}
	var total float64
	for _, p := range s.Pools {
		total += p.Share
	}
	if s.NormalizeShares && total <= 0 {
		return nil, fmt.Errorf("scenario %s: normalize_shares needs a positive share sum, got %v", s.Name, total)
	}
	out := make([]mining.PoolConfig, 0, len(s.Pools))
	for _, p := range s.Pools {
		cfg := mining.PoolConfig{
			Name:                   p.Name,
			HashrateShare:          p.Share,
			EmptyBlockProb:         p.EmptyBlockProb,
			MultiVersionProb:       p.MultiVersionProb,
			MultiVersionSameTxProb: p.MultiVersionSameTxProb,
			SwitchDelayMean:        mining.DefaultSwitchDelay,
			Withholder:             p.Withholder,
		}
		if s.NormalizeShares {
			cfg.HashrateShare = p.Share / total
		}
		if p.SwitchDelayMS != nil {
			cfg.SwitchDelayMean = millis(*p.SwitchDelayMS)
		}
		for _, g := range p.Gateways {
			r, err := parseRegion(g)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: pool %s: %w", s.Name, p.Name, err)
			}
			cfg.GatewayRegions = append(cfg.GatewayRegions, r)
		}
		out = append(out, cfg)
	}
	return out, nil
}
