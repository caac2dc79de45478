// Package core orchestrates complete measurement campaigns: it builds
// the simulated Ethereum network, runs mining pools and a transaction
// workload over it, attaches geographically dispersed instrumented
// measurement nodes, and hands what they observed to the analysis
// pipeline.
//
// This is the reproduction's top-level public API. A downstream user
// does:
//
//	cfg := core.DefaultCampaignConfig(42)
//	result, err := core.RunCampaign(cfg)
//	fig1, err := analysis.PropagationDelays(result.Index)
//
// matching the original study's workflow: deploy instrumented clients
// (§II), collect logs, post-process (§III).
package core

import (
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/txgen"
	"repro/internal/types"
)

// MeasurementSpec describes one measurement-node deployment.
type MeasurementSpec struct {
	// Name labels the node; the paper uses region abbreviations.
	Name string
	// Region places the node.
	Region geo.Region
	// Peers is the connection count. The paper's four primary nodes
	// ran "unlimited" (>100 live peers); its subsidiary node ran the
	// Geth default of 25. Peers <= 0 means "unlimited", which the
	// campaign scales to half the overlay (first-observation behavior
	// depends on absolute peer coverage, which does not shrink when
	// the overlay is scaled down).
	Peers int
}

// PaperMeasurementSpecs returns the four vantage points of the study:
// North America, Eastern Asia, Western Europe, Central Europe, each
// with >100 peers.
func PaperMeasurementSpecs(peers int) []MeasurementSpec {
	return []MeasurementSpec{
		{Name: "NA", Region: geo.NorthAmerica, Peers: peers},
		{Name: "EA", Region: geo.EasternAsia, Peers: peers},
		{Name: "WE", Region: geo.WesternEurope, Peers: peers},
		{Name: "CE", Region: geo.CentralEurope, Peers: peers},
	}
}

// CampaignConfig parameterizes an end-to-end campaign.
type CampaignConfig struct {
	// Seed makes the whole campaign reproducible.
	Seed uint64
	// NetworkNodes is the overlay size (the 2019 mainnet had ~15,000
	// peers; experiments scale this down, which preserves gossip
	// behavior since dissemination cost is logarithmic).
	NetworkNodes int
	// Degree is each node's dial-out count (union degree ~2x).
	Degree int
	// NodeShare distributes overlay nodes across regions; nil uses
	// geo.DefaultNodeShare.
	NodeShare map[geo.Region]float64
	// Latency is the geographic delay model.
	Latency geo.LatencyModel
	// Relay selects and parameterizes the block-relay protocol (the
	// zero value is the paper's eth/63 sqrt-push rule).
	Relay relay.Config
	// Measurement lists the instrumented nodes to attach.
	Measurement []MeasurementSpec
	// Streaming drops the measurement nodes' raw logs. Every node folds
	// each reception once into O(items) aggregates and the campaign's
	// Index is always built from that fold, so the Index — and every
	// analysis on it — is identical either way; the flag only decides
	// whether the nodes also retain one Record per reception. Set, it
	// keeps campaign memory O(blocks + transactions) rather than
	// O(receptions) and every node's Records() is nil.
	// Leave the default (false) when the raw JSONL log itself is the
	// product (cmd/ethmeasure).
	Streaming bool
	// Mining configures pools and block production. Mining.OnBlock is
	// overridden by the campaign (blocks are injected at gateways).
	Mining mining.Config
	// Blocks is the number of block heights to produce.
	Blocks uint64
	// Workload optionally runs a transaction workload. Workload.Submit
	// is overridden by the campaign. Nil disables transactions. With a
	// workload the measurement nodes record each block's transaction
	// hash list, which the commit-time analyses need.
	Workload *txgen.Config
	// Faults optionally injects dependability events (crash/recover,
	// partitions, link loss, churn) into the running campaign.
	// Measurement nodes and pool gateways are protected, matching the
	// paper's always-on infrastructure. Nil keeps the campaign healthy
	// — and byte-identical to the pre-fault engine.
	Faults *faults.Config
	// Shards sets how the run executes, never what it computes: the
	// transport always runs one lane per region, each with its own RNG
	// stream, beside a global engine for mining, the workload and
	// faults, and every Shards value yields byte-identical artifacts.
	// 0 (the default) runs the lanes on one engine on one goroutine
	// (sim.RunSerial), the fewest CPU-seconds; when 0, the
	// ETHREPRO_SHARDS environment variable (a non-negative integer)
	// supplies the value instead. Any value >= 1 advances the lanes on
	// a sim.Conductor under conservative lookahead with up to Shards
	// worker goroutines (clamped to the region count), the shortest
	// wall clock when cores are spare.
	Shards int
}

// DefaultCampaignConfig returns a network-level campaign sized for the
// propagation experiments (Figs. 1-3): ~1,500 nodes, four unlimited-
// peer measurement nodes, no transaction workload.
func DefaultCampaignConfig(seed uint64) CampaignConfig {
	return CampaignConfig{
		Seed:         seed,
		NetworkNodes: 1500,
		Degree:       8,
		Latency:      geo.DefaultLatencyModel(),
		Measurement:  PaperMeasurementSpecs(0), // unlimited, like the paper
		Mining:       mining.DefaultConfig(),
		Blocks:       1000,
	}
}

// CampaignResult bundles everything a campaign produced.
type CampaignResult struct {
	// Index is the observation index, built from the nodes' fold.
	Index *analysis.Index
	// View is the chain view reconstructed from the logs (what the
	// original study could compute) — use for log-based analyses.
	View *analysis.ChainView
	// Nodes are the measurement nodes (logs, clocks).
	Nodes []*measure.Node
	// TxRecords is the workload ground truth (empty without a
	// workload).
	TxRecords []txgen.TxRecord
	// MessagesSent / BytesSent are transport totals.
	MessagesSent uint64
	BytesSent    uint64
	// Bandwidth is the per-protocol transport accounting: per-class
	// byte counters, per-vantage ingress/egress and the compact-relay
	// reconstruction profile.
	Bandwidth *analysis.Bandwidth
	// MessagesDropped counts sends and deliveries discarded by faults
	// (always zero on a healthy campaign).
	MessagesDropped uint64
	// Faults is the fault injector's event accounting (nil when no
	// faults were configured).
	Faults *faults.Stats
	// Duration is the virtual time the campaign ran for.
	Duration sim.Time
}

// Campaign is a configured, runnable measurement campaign.
type Campaign struct {
	cfg CampaignConfig
	// engines are the run's engines, global first: mining, workload and
	// fault timers live on engines[0]; the region lanes share
	// engines[1] at shards 0 and run on the conductor cond's region
	// lanes otherwise (cond is nil at shards 0). shards is the resolved
	// worker count.
	engines []*sim.Engine
	cond    *sim.Conductor
	shards  int
	rng     *sim.RNG
	network *p2p.Network
	// byRegn indexes overlay nodes by region (regions are a dense
	// 1-based enum; slot 0 stays empty).
	byRegn [geo.NumRegions + 1][]*p2p.Node
	// poolIdx interns pool names to dense indices into gateways; each
	// pool's gateways are a region-indexed array. The block-injection
	// hot path resolves (pool, region) with one map probe and one array
	// read instead of two map lookups.
	poolIdx  map[string]int32
	gateways [][geo.NumRegions + 1]*p2p.Node
	miners   *mining.Simulator
	txPool   *chain.TxPool
	gen      *txgen.Generator
	nodes    []*measure.Node
	injector *faults.Injector
	obsScope *obs.RunScope
}

// newClock samples a measurement node's clock from the campaign's
// clock stream: the paper's NTP error mixture. Tests swap in a perfect
// clock for ground-truth runs.
var newClock = geo.NewClock

// NewCampaign validates the configuration and builds the network,
// pools, workload and measurement nodes (nothing runs yet).
func NewCampaign(cfg CampaignConfig) (*Campaign, error) {
	if cfg.NetworkNodes < 10 {
		return nil, fmt.Errorf("core: network of %d nodes is too small", cfg.NetworkNodes)
	}
	if cfg.Degree < 1 {
		return nil, fmt.Errorf("core: degree %d < 1", cfg.Degree)
	}
	if cfg.Blocks == 0 {
		return nil, errors.New("core: campaign needs Blocks > 0")
	}
	if len(cfg.Measurement) == 0 {
		return nil, errors.New("core: campaign needs measurement nodes")
	}
	shards, err := resolveShards(cfg.Shards)
	if err != nil {
		return nil, err
	}
	// One lane per region plus the global lane every centrally
	// scheduled subsystem (mining, workload, faults, injection) runs
	// on. The decomposition is fixed — shards only picks the scheduler
	// and its worker count — so artifacts are identical at every
	// shards value. The run's tracer sees every engine RunSerial
	// drives; on the conductor, whose lanes run concurrently, only the
	// global lane.
	var cond *sim.Conductor
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	traced := engines
	if shards > 0 {
		cond = sim.NewConductor(geo.NumRegions)
		engines = []*sim.Engine{cond.Global()}
		for r := 0; r < cond.Regions(); r++ {
			engines = append(engines, cond.Lane(r))
		}
		traced = engines[:1]
	}
	engine := engines[0]
	rootRNG := sim.NewRNG(cfg.Seed)

	c := &Campaign{
		cfg:     cfg,
		engines: engines,
		cond:    cond,
		shards:  shards,
		rng:     rootRNG,
		// Observability reads engine counters and wall clocks only —
		// it touches no RNG, so a traced campaign replays the untraced
		// one byte for byte. A nil scope (collection disabled) is
		// inert.
		obsScope: obs.Default.StartRun(cfg.Seed, traced...),
	}

	// Overlay.
	share := cfg.NodeShare
	if share == nil {
		share = geo.DefaultNodeShare
	}
	c.network = p2p.NewNetwork(engines[1], rootRNG.Fork("network"), cfg.Latency)
	c.network.Reserve(overlaySize(cfg))
	proto, err := relay.New(cfg.Relay)
	if err != nil {
		return nil, fmt.Errorf("core: relay: %w", err)
	}
	c.network.SetRelay(proto)
	placement, err := geo.PlaceNodes(cfg.NetworkNodes, share)
	if err != nil {
		return nil, fmt.Errorf("core: place nodes: %w", err)
	}
	for _, r := range placement {
		n, err := c.network.AddNode(r, 0)
		if err != nil {
			return nil, fmt.Errorf("core: add node: %w", err)
		}
		c.byRegn[r] = append(c.byRegn[r], n)
	}
	if err := c.network.WireRandom(cfg.Degree); err != nil {
		return nil, fmt.Errorf("core: wire overlay: %w", err)
	}

	// Measurement nodes (attached before traffic starts, like the
	// study's month-long deployment).
	clockRNG := rootRNG.Fork("clocks")
	for _, spec := range cfg.Measurement {
		clock := newClock(clockRNG)
		m, err := measure.Attach(c.network, measure.Options{
			Name:           spec.Name,
			Region:         spec.Region,
			Peers:          vantagePeers(cfg, spec),
			CaptureTxLinks: cfg.Workload != nil,
			Streaming:      cfg.Streaming,
		}, clock)
		if err != nil {
			return nil, fmt.Errorf("core: attach %s: %w", spec.Name, err)
		}
		c.nodes = append(c.nodes, m)
	}

	// Pool gateways are dedicated, well-connected nodes (§III-B2:
	// pools place gateways in several locations to disseminate their
	// blocks). A gateway's dense peering makes the first dissemination
	// wave regional — the mechanism behind Figs. 2-3.
	peers := gatewayPeers(cfg)
	c.poolIdx = make(map[string]int32, len(cfg.Mining.Pools))
	for _, pool := range cfg.Mining.Pools {
		var perRegion [geo.NumRegions + 1]*p2p.Node
		for _, r := range pool.GatewayRegions {
			gw, err := c.network.AddNode(r, 0)
			if err != nil {
				return nil, fmt.Errorf("core: gateway %s/%v: %w", pool.Name, r, err)
			}
			if err := c.network.ConnectSampleBiased(gw, peers, 0.5); err != nil {
				return nil, fmt.Errorf("core: wire gateway %s/%v: %w", pool.Name, r, err)
			}
			perRegion[r] = gw
		}
		c.poolIdx[pool.Name] = int32(len(c.gateways))
		c.gateways = append(c.gateways, perRegion)
	}

	// Fault injection. The RNG fork happens only when faults are
	// configured, so healthy campaigns consume exactly the draws they
	// always did (byte-identical artifacts). Measurement peers and
	// pool gateways are protected from crashes and departures.
	miningCfg := cfg.Mining
	if cfg.Faults.Enabled() {
		var protected []*p2p.Node
		for _, m := range c.nodes {
			protected = append(protected, m.Peer())
		}
		for _, pool := range cfg.Mining.Pools {
			for _, r := range pool.GatewayRegions {
				if gw := c.gateways[c.poolIdx[pool.Name]][r]; gw != nil {
					protected = append(protected, gw)
				}
			}
		}
		inj, err := faults.New(engine, rootRNG.Fork("faults"), c.network, *cfg.Faults, cfg.Degree, protected)
		if err != nil {
			return nil, fmt.Errorf("core: faults: %w", err)
		}
		c.injector = inj
		c.network.Fault = inj
		if len(cfg.Faults.Partitions) > 0 {
			miningCfg.VisibilityFilter = inj.VisibilityDeferral
		}
	}

	// Transaction workload feeds a global pool miners draw from.
	miningCfg.BlockLimit = cfg.Blocks
	if cfg.Workload != nil {
		c.txPool = chain.NewTxPool()
		miningCfg.TxPool = c.txPool
		wl := *cfg.Workload
		wl.Submit = c.submitTx
		gen, err := txgen.NewGenerator(engine, rootRNG.Fork("txgen"), wl)
		if err != nil {
			return nil, fmt.Errorf("core: workload: %w", err)
		}
		c.gen = gen
	}

	// Mining pools inject blocks at gateway-region nodes. When the
	// last block is produced the workload and fault processes stop, so
	// the run drains: an unlimited generator or a recurring fault
	// timer would otherwise keep the engine busy forever.
	miningCfg.OnBlock = c.injectBlock
	miningCfg.OnDone = func(sim.Time) {
		if c.gen != nil {
			c.gen.Stop()
		}
		if c.injector != nil {
			c.injector.Stop()
		}
	}
	miners, err := mining.NewSimulator(engine, rootRNG.Fork("mining"), miningCfg)
	if err != nil {
		return nil, fmt.Errorf("core: mining: %w", err)
	}
	c.miners = miners

	// Put the lanes on the conductor last, after every build-time RNG
	// draw (wiring, gateways): the lanes' streams fork from the network
	// RNG there — at shards 0 at the first injection, the same point,
	// since nothing draws from it in between.
	if cond != nil {
		cond.SetBounds(lookaheadBounds(cfg.Latency))
		// The global lane's only lane-touching events are block
		// injections, and those all fire inside mining race wins — the
		// other global events (per-pool head-visibility updates) are
		// internal, so the pending race timer is a sound lookahead
		// horizon. A workload or fault plan adds global events that
		// touch arbitrary nodes (transaction submission, crash/link
		// timers), so those campaigns keep the conservative
		// next-global-event bound.
		if cfg.Workload == nil && cfg.Faults == nil {
			cond.GlobalHorizon = miners.NextInjectionAt
		}
		c.network.EnableSharding(cond)
	}
	return c, nil
}

// vantagePeers is the connection count a measurement node dials:
// "unlimited" is half the overlay.
func vantagePeers(cfg CampaignConfig, spec MeasurementSpec) int {
	if spec.Peers <= 0 {
		return cfg.NetworkNodes / 2
	}
	return spec.Peers
}

// gatewayPeers is the connection count a pool gateway dials.
func gatewayPeers(cfg CampaignConfig) int {
	return max(cfg.NetworkNodes/3, 2*cfg.Degree)
}

// overlaySize counts what NewCampaign builds, for Network.Reserve: the
// overlay, measurement and gateway nodes, two adjacency cells per
// connection they dial, and the blocks the run interns. Churn joins and
// fault rewiring come on top; the network grows past its reservation
// for them.
//
// cfg.Blocks counts mining wins; a win publishes one block, and with
// its pool's MultiVersionProb (at most 1.3% in the paper's pool table)
// further versions of it. A 40-block campaign interns a 41st block at
// about one seed in three, so the reservation adds a sixteenth plus
// four: past it the body-cache rings double, which on overlay-10k
// re-lays out 1.6 MB for one extra block.
func overlaySize(cfg CampaignConfig) (nodes, cells, blocks int) {
	nodes = cfg.NetworkNodes + len(cfg.Measurement)
	edges := cfg.NetworkNodes * cfg.Degree
	for _, spec := range cfg.Measurement {
		edges += vantagePeers(cfg, spec)
	}
	for _, pool := range cfg.Mining.Pools {
		nodes += len(pool.GatewayRegions)
		edges += len(pool.GatewayRegions) * gatewayPeers(cfg)
	}
	blocks = int(cfg.Blocks + cfg.Blocks/16 + 4)
	return nodes, 2 * edges, blocks
}

// lookaheadBounds derives the conductor's per-lane-pair lookahead
// matrix from the campaign's latency model: bound[src][dst] is the
// smallest delay the transport can sample between the two regions
// (geo.MinPairDelay — for the default model max(1 ms, 0.25 × base),
// e.g. ~18 ms for NA↔EA against the uniform 1 ms floor). The bound
// stays sound under every fault class: link faults only *add* delay
// (FilterLink's extra is drawn from an exponential, never negative)
// and partitions/crashes only drop messages outright — no fault can
// accelerate a delivery below the model's floor.
//
// The bounds only move phase-B window deadlines, never the event
// schedule, so artifacts must be byte-identical under any sound matrix;
// TestShardedLookaheadBoundsInvariance pins that against the uniform
// 1 ms one.
func lookaheadBounds(m geo.LatencyModel) [][]sim.Time {
	bounds := make([][]sim.Time, geo.NumRegions)
	for i, from := range geo.Regions() {
		bounds[i] = make([]sim.Time, geo.NumRegions)
		for j, to := range geo.Regions() {
			d, err := m.MinPairDelay(from, to)
			if err != nil {
				panic(err) // unreachable: Regions() only yields valid regions
			}
			bounds[i][j] = d
		}
	}
	return bounds
}

// resolveShards maps the Shards knob (with the ETHREPRO_SHARDS
// fallback when unset) to a worker count: 0 serial, otherwise clamped
// to [1, NumRegions] — more workers than lanes cannot help. A variable
// that is not a count is an error rather than a silent fallback.
func resolveShards(shards int) (int, error) {
	if shards == 0 {
		if v := os.Getenv("ETHREPRO_SHARDS"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("core: ETHREPRO_SHARDS=%q is not a worker count (want an integer >= 0)", v)
			}
			shards = n
		}
	}
	if shards <= 0 {
		return 0, nil
	}
	return min(shards, geo.NumRegions), nil
}

// submitTx delivers a workload transaction into the overlay at a node
// in the sender's region, and into the global pool for miners. A
// private transaction reaches only the pool — miners can include it,
// but no overlay mempool ever sees it.
func (c *Campaign) submitTx(now sim.Time, tx *types.Transaction, origin geo.Region, private bool) {
	// Mining pools learn about transactions through their own edge
	// infrastructure; the global pool models their union mempool.
	if c.txPool != nil {
		// Duplicate/stale adds are expected (held re-emissions) and
		// harmless.
		_, _ = c.txPool.Add(tx)
	}
	if private {
		return
	}
	if node := c.regionNode(origin); node != nil {
		node.InjectTx(now, tx)
	}
}

// injectBlock publishes a freshly mined block at the producing pool's
// gateway node for the chosen region.
func (c *Campaign) injectBlock(ev mining.BlockEvent) {
	if pi, ok := c.poolIdx[ev.Pool]; ok && ev.Gateway >= 1 && ev.Gateway <= geo.NumRegions {
		if gw := c.gateways[pi][ev.Gateway]; gw != nil {
			gw.InjectBlock(ev.Now, ev.Block)
			return
		}
	}
	// Unknown pool/region (possible in hand-built configs): fall back
	// to any node in the gateway region.
	if node := c.regionNode(ev.Gateway); node != nil {
		node.InjectBlock(ev.Now, ev.Block)
	}
}

// regionNode picks a random overlay node in a region (any region's
// node when that region hosts none).
func (c *Campaign) regionNode(r geo.Region) *p2p.Node {
	var nodes []*p2p.Node
	if r >= 1 && r <= geo.NumRegions {
		nodes = c.byRegn[r]
	}
	if len(nodes) == 0 {
		all := c.network.Nodes()
		if len(all) == 0 {
			return nil
		}
		return all[c.rng.IntN(len(all))]
	}
	return nodes[c.rng.IntN(len(nodes))]
}

// Run executes the campaign to completion and assembles the result.
func (c *Campaign) Run() (*CampaignResult, error) {
	c.obsScope.RunStarted()
	if c.gen != nil {
		c.gen.Start()
	}
	if c.injector != nil {
		c.injector.Start()
	}
	c.miners.Start()
	// Mining's OnDone stops the workload and fault processes after the
	// last block; the run then drains propagation events, held
	// releases and pending recoveries.
	if c.cond != nil {
		c.cond.Run(c.shards)
	} else {
		sim.RunSerial(c.engines[0], c.engines[1])
	}
	// Conductor lanes count privately: move their transport and relay
	// counters into the network's public accounting before anything
	// reads it.
	c.network.FoldLanes()
	if c.injector != nil {
		c.injector.Finalize(c.now())
	}
	sample := obs.RunSample{
		Engine:   c.engineStats(),
		Messages: c.network.MessagesSent,
		Bytes:    c.network.BytesSent,
		Dropped:  c.network.MessagesDropped,
		Nodes:    c.network.Len(),
		Lanes:    c.laneStats(),
	}
	if c.cond != nil {
		cs := c.cond.Stats()
		sample.Conductor, sample.Workers, sample.Phases = &cs, c.shards, c.cond.Times()
	}
	c.obsScope.Finish(sample)
	if err := c.miners.Err(); err != nil {
		return nil, fmt.Errorf("core: mining: %w", err)
	}

	idx, err := analysis.IndexFromStreams(c.nodes)
	if err != nil {
		return nil, fmt.Errorf("core: index logs: %w", err)
	}
	view, err := analysis.ViewFromIndex(idx)
	if err != nil {
		return nil, fmt.Errorf("core: reconstruct chain: %w", err)
	}
	res := &CampaignResult{
		Index:           idx,
		View:            view,
		Nodes:           c.nodes,
		MessagesSent:    c.network.MessagesSent,
		BytesSent:       c.network.BytesSent,
		MessagesDropped: c.network.MessagesDropped,
		Bandwidth:       c.bandwidth(),
		Duration:        c.now(),
	}
	if c.injector != nil {
		stats := c.injector.Stats()
		res.Faults = &stats
	}
	if c.gen != nil {
		res.TxRecords = c.gen.Records()
	}
	return res, nil
}

// now returns the run's time frontier: the last event executed on any
// engine. Engine clocks are the wrong end-of-run time — a conductor
// lane's final clock sits at its granted deadline, whose overshoot past
// the last event depends on the lookahead bound matrix, and RunSerial's
// region engine coasts to the global lane's last event — and this
// frontier feeds artifacts (campaign Duration, fault-outage truncation)
// that must not.
func (c *Campaign) now() sim.Time {
	var t sim.Time
	for _, e := range c.engines {
		t = max(t, e.LastEventAt())
	}
	return t
}

// engineStats snapshots the run's engine counters, aggregated across
// its engines: counter sums, max clock, summed queue high-water marks
// (total in-flight depth).
func (c *Campaign) engineStats() sim.EngineStats {
	var agg sim.EngineStats
	for _, s := range c.laneStats() {
		agg.Processed += s.Processed
		agg.Scheduled += s.Scheduled
		agg.FarScheduled += s.FarScheduled
		agg.Pending += s.Pending
		agg.MaxPending += s.MaxPending
		agg.Slots += s.Slots
		if s.Now > agg.Now {
			agg.Now = s.Now
		}
	}
	return agg
}

// laneStats returns per-engine snapshots, global engine first.
func (c *Campaign) laneStats() []sim.EngineStats {
	out := make([]sim.EngineStats, 0, len(c.engines))
	for _, e := range c.engines {
		out = append(out, e.Stats())
	}
	return out
}

// bandwidth assembles the per-protocol transport accounting from the
// network's class counters, the measurement nodes' ingress/egress and
// the relay counters.
func (c *Campaign) bandwidth() *analysis.Bandwidth {
	b := &analysis.Bandwidth{
		Protocol:        c.cfg.Relay.Mode.String(),
		TotalMessages:   c.network.MessagesSent,
		TotalBytes:      c.network.BytesSent,
		DroppedMessages: c.network.MessagesDropped,
		Blocks:          c.cfg.Blocks,
		Classes:         c.network.ClassTotals(),
		Reconstruction:  c.network.RelayCounters,
	}
	for _, m := range c.nodes {
		peer := m.Peer()
		b.Vantages = append(b.Vantages, analysis.VantageBandwidth{
			Name:        m.Name(),
			MessagesIn:  peer.MessagesIn(),
			BytesIn:     peer.BytesIn(),
			MessagesOut: peer.MessagesOut(),
			BytesOut:    peer.BytesOut(),
		})
	}
	return b
}

// RunCampaign is the one-call convenience wrapper.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	c, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// ChainOnlyResult is the output of a chain-level run (no network, no
// measurement nodes): the ground-truth tree and the miner-side
// one-miner-fork tuples, nothing derived from them. A caller that
// needs the analysis view builds it with analysis.ViewFromTree; one
// that needs publish times records them through mining.Config.OnBlock
// in its mutate (mining.RecordPublishTimes). A settled run
// (mining.Config.OnSettled, analysis.ChainFold's Settled for the
// chain-level analyses) hands its heights to the hook instead and
// returns neither.
type ChainOnlyResult struct {
	Tree               *chain.BlockTree
	MultiVersionTuples map[types.Hash]int
}

// RunChainOnly executes the mining model without a network overlay.
// The fork/uncle/empty-block/sequence statistics (Figs. 6-7, Table
// III, §III-C5, §III-D) are chain-level properties; skipping gossip
// lets these experiments run at the paper's 200k-block (and beyond)
// scale.
//
// When the mutate sets OnSettled, the hook sees every height up to the
// head's exactly once, genesis first, in height order, with its
// main-chain block and all its blocks: settled heights during the run
// and the unsettled tip once the engine drains. A block or pool head
// that reaches below the settled height fails the run with the
// *chain.ReorgError naming its depth.
func RunChainOnly(seed uint64, blocks uint64, mutate func(*mining.Config)) (*ChainOnlyResult, error) {
	res, _, _, err := runChainOnly(seed, blocks, mutate)
	return res, err
}

// runChainOnly is RunChainOnly handing back its engine and mining RNG
// too, which the settled-path tests compare across the two paths.
func runChainOnly(seed uint64, blocks uint64, mutate func(*mining.Config)) (*ChainOnlyResult, *sim.Engine, *sim.RNG, error) {
	if blocks == 0 {
		return nil, nil, nil, errors.New("core: chain-only run needs blocks > 0")
	}
	engine := sim.NewEngine()
	rng := sim.NewRNG(seed)
	cfg := mining.DefaultConfig()
	cfg.BlockLimit = blocks
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := mining.NewSimulator(engine, rng, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	scope := obs.Default.StartRun(seed, engine)
	scope.RunStarted()
	s.Start()
	engine.Run()
	scope.Finish(obs.RunSample{Engine: engine.Stats()})
	if err := s.Err(); err != nil {
		return nil, engine, rng, fmt.Errorf("core: chain-only run: %w", err)
	}
	if cfg.OnSettled != nil {
		s.Tree().Flush(cfg.OnSettled)
		return &ChainOnlyResult{}, engine, rng, nil
	}
	return &ChainOnlyResult{
		Tree:               s.Tree(),
		MultiVersionTuples: s.MultiVersionTuples(),
	}, engine, rng, nil
}
