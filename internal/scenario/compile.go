package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mining"
	"repro/internal/sim"
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

// scaledNodes applies the scale multiplier to the overlay size — the
// single sizing rule shared by the campaign build and the
// availability denominator.
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
	var mutateErr error
	fold := &analysis.ChainFold{}
	_, err := core.RunChainOnly(seed, v.Scenario.scaledBlocks(sc), func(c *mining.Config) {
		mutateErr = v.applyMining(c)
		c.OnSettled = fold.Settled
		if slices.Contains(v.Scenario.outputs(), "withholding") {
			fold.TestWithholding(mining.RecordPublishTimes(c),
				analysis.DefaultWithholdingMinRun, analysis.DefaultWithholdingBurstRatio)
		}
	})
	if mutateErr != nil {
		return nil, mutateErr
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", v.ID(), err)
	}
	return v.outcomes(func(name string) (*experiments.Outcome, error) {
		if o, handled, err := v.foldOutcome(name, fold); handled {
			return o, err
		}
		switch name {
		case "withholding":
			return v.withholdingOutcome(fold)
		}
		return nil, fmt.Errorf("scenario %s: output %q unavailable in chain mode", v.ID(), name)
	})
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
	cfg.KademliaWiring = s.Network.Kademlia
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
		cfg.CaptureTxLinks = true
	}
	return cfg, nil
}

// runNetwork executes a full overlay variant.
func (v *Variant) runNetwork(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
	cfg, err := v.campaignConfig(seed, sc)
	if err != nil {
		return nil, err
	}
	res, err := core.RunCampaign(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", v.ID(), err)
	}
	fold := analysis.FoldView(res.View)
	return v.outcomes(func(name string) (*experiments.Outcome, error) {
		if o, handled, err := v.foldOutcome(name, fold); handled {
			return o, err
		}
		return v.networkOutcome(name, res, sc)
	})
}

// outcomes maps every selected output through build, qualifying IDs
// with the variant ID so sweep variants aggregate separately.
func (v *Variant) outcomes(build func(name string) (*experiments.Outcome, error)) ([]*experiments.Outcome, error) {
	var out []*experiments.Outcome
	for _, name := range v.Scenario.outputs() {
		o, err := build(name)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: output %s: %w", v.ID(), name, err)
		}
		o.ID = v.ID() + "/" + name
		out = append(out, o)
	}
	return out, nil
}

// outputDef describes one analysis a scenario can request.
type outputDef struct {
	// title names the produced artifact.
	title string
	// network/chainMode report mode availability.
	network, chainMode bool
	// needsWorkload requires a workload section.
	needsWorkload bool
	// needsFaults requires a faults section.
	needsFaults bool
}

func (d outputDef) supports(mode string) bool {
	if mode == ModeChain {
		return d.chainMode
	}
	return d.network
}

// outputDefs catalogs every output name. The compile functions switch
// on the same names; a test asserts the two stay in sync.
var outputDefs = map[string]outputDef{
	"propagation":            {title: "block propagation delay", network: true},
	"first_observation":      {title: "first observation share per node", network: true},
	"pool_first_observation": {title: "first observation per mining pool", network: true},
	"redundancy":             {title: "redundant block receptions", network: true},
	"transport":              {title: "transport message and byte totals", network: true},
	"bandwidth":              {title: "per-protocol bandwidth accounting", network: true},
	"commit_times":           {title: "transaction inclusion and commit times", network: true, needsWorkload: true},
	"reordering":             {title: "commit delay by observed ordering", network: true, needsWorkload: true},
	"availability":           {title: "availability under injected faults", network: true, needsFaults: true},
	"empty_blocks":           {title: "empty blocks per pool", network: true, chainMode: true},
	"forks":                  {title: "fork types and lengths", network: true, chainMode: true},
	"one_miner_forks":        {title: "one-miner forks", network: true, chainMode: true},
	"sequences":              {title: "consecutive main-chain sequences", network: true, chainMode: true},
	"withholding":            {title: "withholding burst detection", chainMode: true},
}

// OutputNames lists every known output, sorted.
func OutputNames() []string {
	names := make([]string, 0, len(outputDefs))
	for n := range outputDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// foldOutcome builds the chain-level outputs shared by both modes from
// the run's fold. handled reports whether name is one of them.
func (v *Variant) foldOutcome(name string, fold *analysis.ChainFold) (*experiments.Outcome, bool, error) {
	o := &experiments.Outcome{Title: outputDefs[name].title}
	switch name {
	case "empty_blocks":
		empty, err := fold.EmptyBlocks()
		if err != nil {
			return nil, true, err
		}
		o.Rendered = analysis.RenderEmptyBlocks(empty, 16)
		o.Metrics = map[string]float64{"empty_fraction": empty.Fraction}
	case "forks":
		forks, err := fold.Forks()
		if err != nil {
			return nil, true, err
		}
		o.Rendered = analysis.RenderForks(forks)
		o.Metrics = map[string]float64{
			"len1_total":   float64(forks.ByLength[1].Total),
			"len2_total":   float64(forks.ByLength[2].Total),
			"main_blocks":  float64(forks.MainBlocks),
			"uncle_blocks": float64(forks.UncleBlocks),
		}
	case "one_miner_forks":
		om, err := fold.OneMinerForks()
		if err != nil {
			return nil, true, err
		}
		o.Rendered = analysis.RenderOneMinerForks(om)
		o.Metrics = map[string]float64{
			"pairs":               float64(om.TupleCounts[2]),
			"recognized_fraction": om.RecognizedFraction,
			"fraction_of_forks":   om.FractionOfForks,
		}
	case "sequences":
		seq, err := fold.Sequences()
		if err != nil {
			return nil, true, err
		}
		maxRun := 0
		for _, r := range seq.MaxRun {
			if r > maxRun {
				maxRun = r
			}
		}
		o.Rendered = analysis.RenderSequences(seq, 6, 9)
		o.Metrics = map[string]float64{"max_run": float64(maxRun)}
	default:
		return nil, false, nil
	}
	return o, true, nil
}

// withholdingOutcome reads the §III-D burst detector's verdicts on a
// chain run, armed at the same calibration as the registry's W1 spec.
func (v *Variant) withholdingOutcome(fold *analysis.ChainFold) (*experiments.Outcome, error) {
	det, err := fold.Withholding()
	if err != nil {
		return nil, err
	}
	// Every configured pool gets a flagged_ metric, zero included:
	// repeats without flags must still contribute samples, or the
	// cross-repeat aggregation would average only the flagged subset.
	pools, err := v.Scenario.pools()
	if err != nil {
		return nil, err
	}
	flaggedByPool := make(map[string]int, len(pools))
	for _, p := range pools {
		flaggedByPool[p.Name] = 0
	}
	for _, verdict := range det.Verdicts {
		if verdict.Flagged {
			flaggedByPool[verdict.Pool]++
		}
	}
	metrics := map[string]float64{
		"runs_examined": float64(det.RunsExamined),
		"flagged_runs":  float64(det.FlaggedRuns),
	}
	// The pool_ prefix keeps per-pool keys disjoint from the
	// aggregates above whatever the pool is named.
	for pool, n := range flaggedByPool {
		metrics["pool_"+pool+"_flagged"] = float64(n)
	}
	return &experiments.Outcome{
		Title:    outputDefs["withholding"].title,
		Rendered: analysis.RenderWithholding(det),
		Metrics:  metrics,
	}, nil
}

// networkOutcome builds the overlay-only outputs.
func (v *Variant) networkOutcome(name string, res *core.CampaignResult, sc experiments.Scale) (*experiments.Outcome, error) {
	o := &experiments.Outcome{Title: outputDefs[name].title}
	switch name {
	case "propagation":
		prop, err := analysis.PropagationDelays(res.Index)
		if err != nil {
			return nil, err
		}
		o.Rendered = analysis.RenderPropagation(prop)
		o.Metrics = map[string]float64{
			"median_ms": prop.Summary.Median,
			"mean_ms":   prop.Summary.Mean,
			"p95_ms":    prop.Summary.P95,
			"p99_ms":    prop.Summary.P99,
		}
	case "first_observation":
		first, err := analysis.FirstObservations(res.Index)
		if err != nil {
			return nil, err
		}
		o.Rendered = analysis.RenderFirstObservations(first)
		o.Metrics = map[string]float64{}
		for node, share := range first.Share {
			o.Metrics[node+"_share"] = share
		}
	case "pool_first_observation":
		pools, err := analysis.PoolFirstObservations(res.Index, 15)
		if err != nil {
			return nil, err
		}
		o.Rendered = analysis.RenderPoolObservations(pools, v.measurementNames())
		o.Metrics = map[string]float64{"pools": float64(len(pools.Pools))}
	case "redundancy":
		node := v.measurementNames()[0]
		red, err := analysis.Redundancy(res.Index, node)
		if err != nil {
			return nil, err
		}
		o.Rendered = analysis.RenderRedundancy(red)
		o.Metrics = map[string]float64{
			"announce_mean": red.Announcements.Mean,
			"whole_mean":    red.WholeBlocks.Mean,
			"combined_mean": red.Combined.Mean,
		}
	case "transport":
		o.Rendered = fmt.Sprintf("Transport totals\n  messages %d\n  bytes    %d\n",
			res.MessagesSent, res.BytesSent)
		o.Metrics = map[string]float64{
			"messages": float64(res.MessagesSent),
			"bytes":    float64(res.BytesSent),
		}
	case "bandwidth":
		rendered, err := analysis.RenderBandwidth(res.Bandwidth)
		if err != nil {
			return nil, err
		}
		o.Rendered = rendered
		bw := res.Bandwidth
		o.Metrics = map[string]float64{
			"total_messages":  float64(bw.TotalMessages),
			"total_bytes":     float64(bw.TotalBytes),
			"bytes_per_block": bw.BytesPerBlock(),
		}
		for _, c := range bw.Classes {
			o.Metrics["class_"+c.Kind.String()+"_bytes"] = float64(c.Bytes)
		}
		if r := bw.Reconstruction; r.Attempts() > 0 {
			o.Metrics["reconstruct_hit_rate"] = r.HitRate()
			o.Metrics["reconstruct_full"] = float64(r.ReconstructFull)
			o.Metrics["reconstruct_roundtrip"] = float64(r.ReconstructPartial)
			o.Metrics["reconstruct_fallback"] = float64(r.ReconstructFallback)
		}
	case "commit_times":
		commit, err := analysis.CommitTimes(res.Index, res.View)
		if err != nil {
			return nil, err
		}
		o.Rendered = analysis.RenderCommit(commit)
		o.Metrics = map[string]float64{"txs": float64(commit.Txs)}
		if med, err := commit.Inclusion.Value(0.5); err == nil {
			o.Metrics["inclusion_median_s"] = med
		}
	case "reordering":
		reorder, err := analysis.Reordering(res.Index, res.View)
		if err != nil {
			return nil, err
		}
		o.Rendered = analysis.RenderReordering(reorder)
		o.Metrics = map[string]float64{"ooo_fraction": reorder.OutOfOrderFraction}
	case "availability":
		quiet := make(map[string]sim.Time, len(res.Nodes))
		for _, n := range res.Nodes {
			quiet[n.Name()] = n.MaxQuietGap()
		}
		avail, err := analysis.Availability(res.Faults, v.Scenario.scaledNodes(sc), res.Duration, res.MessagesDropped, quiet)
		if err != nil {
			return nil, err
		}
		o.Rendered = analysis.RenderAvailability(avail)
		o.Metrics = map[string]float64{
			"availability":     avail.Availability,
			"crashes":          float64(avail.Crashes),
			"joins":            float64(avail.Joins),
			"leaves":           float64(avail.Leaves),
			"dropped_messages": float64(avail.DroppedMessages),
			"partition_s":      avail.PartitionS,
			"max_quiet_gap_s":  avail.MaxQuietGapS,
		}
	default:
		return nil, fmt.Errorf("unknown output %q", name)
	}
	return o, nil
}

// measurementNames lists the variant's measurement node names (the
// paper's vantage points when the section is omitted).
func (v *Variant) measurementNames() []string {
	if len(v.Scenario.Measurement) == 0 {
		specs := core.PaperMeasurementSpecs(0)
		names := make([]string, 0, len(specs))
		for _, m := range specs {
			names = append(names, m.Name)
		}
		return names
	}
	names := make([]string, 0, len(v.Scenario.Measurement))
	for _, m := range v.Scenario.Measurement {
		names = append(names, m.Name)
	}
	return names
}
