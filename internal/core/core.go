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
	// KademliaWiring builds the overlay through the devp2p-style
	// discovery substrate (internal/discovery) instead of uniform
	// random wiring. Both produce location-independent neighbor
	// relationships (§III-B1); a test asserts the geographic findings
	// agree.
	KademliaWiring bool
	// Measurement lists the instrumented nodes to attach.
	Measurement []MeasurementSpec
	// PerfectClocks disables NTP error (for ground-truth validation
	// runs); the default samples the paper's NTP mixture.
	PerfectClocks bool
	// Streaming drops the measurement nodes' raw logs. Every node folds
	// each reception once into O(items) aggregates and the campaign's
	// Index is always built from that fold, so the Index — and every
	// analysis on it — is identical either way; the flag only decides
	// whether the nodes also retain one Record per reception. Set, it
	// keeps campaign memory O(blocks + transactions) rather than
	// O(receptions) and leaves CampaignResult.Dataset.Records empty.
	// Leave the default (false) when the raw JSONL log itself is the
	// product (cmd/ethmeasure).
	Streaming bool
	// CaptureTxLinks records per-block transaction hash lists,
	// required for commit-time analyses.
	CaptureTxLinks bool
	// Mining configures pools and block production. Mining.OnBlock is
	// overridden by the campaign (blocks are injected at gateways).
	Mining mining.Config
	// Blocks is the number of block heights to produce.
	Blocks uint64
	// Workload optionally runs a transaction workload. Workload.Submit
	// is overridden by the campaign. Nil disables transactions.
	Workload *txgen.Config
	// Faults optionally injects dependability events (crash/recover,
	// partitions, link loss, churn) into the running campaign.
	// Measurement nodes and pool gateways are protected, matching the
	// paper's always-on infrastructure. Nil keeps the campaign healthy
	// — and byte-identical to the pre-fault engine.
	Faults *faults.Config
	// Shards picks the transport's lane layout and scheduler. 0 (the
	// default) runs the whole overlay as one lane on one engine; when
	// 0, the ETHREPRO_SHARDS environment variable (a positive integer)
	// supplies the value instead. Any value >= 1 runs one lane per
	// region under a sim.Conductor, advanced concurrently under
	// conservative lookahead by up to Shards worker goroutines; those
	// artifacts are byte-identical across all Shards values — the lane
	// decomposition is fixed by the region enum, and Shards only sets
	// the worker count (clamped to the region count). The two layouts
	// run the same transport code but are separate artifact families:
	// region lanes draw from per-lane RNG streams forked off the single
	// stream the one-lane layout uses.
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
	// Dataset is the merged measurement log: node names and block
	// bodies always, Records only when the raw log was retained.
	Dataset *analysis.Dataset
	// Index is the observation index, built from the nodes' fold.
	Index *analysis.Index
	// View is the chain view reconstructed from the logs (what the
	// original study could compute) — use for log-based analyses.
	View *analysis.ChainView
	// Tree is the simulation's ground-truth block tree (not available
	// to the original study; used for validation).
	Tree *chain.BlockTree
	// Nodes are the measurement nodes (logs, clocks).
	Nodes []*measure.Node
	// TxRecords is the workload ground truth (empty without a
	// workload).
	TxRecords []txgen.TxRecord
	// MultiVersionTuples is the miner-side one-miner-fork ground
	// truth.
	MultiVersionTuples map[types.Hash]int
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
	cfg    CampaignConfig
	engine *sim.Engine
	// cond drives the region-lane layout (nil: one lane on engine);
	// shards is the resolved worker count. engine is then the
	// conductor's global lane — mining, workload and fault timers all
	// live there.
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
	var cond *sim.Conductor
	engine := sim.NewEngine()
	if shards > 0 {
		// Sharded: one lane per region plus the global lane every
		// centrally scheduled subsystem (mining, workload, faults,
		// injection) runs on. The decomposition is fixed — shards only
		// sets phase-B worker concurrency — so artifacts are identical
		// at every shards value.
		cond = sim.NewConductor(geo.NumRegions)
		engine = cond.Global()
	}
	rootRNG := sim.NewRNG(cfg.Seed)

	c := &Campaign{
		cfg:    cfg,
		engine: engine,
		cond:   cond,
		shards: shards,
		rng:    rootRNG,
		// Observability reads engine counters and wall clocks only —
		// it touches no RNG, so a traced campaign replays the untraced
		// one byte for byte. A nil scope (collection disabled) is
		// inert.
		obsScope: obs.Default.StartRun(cfg.Seed, engine),
	}

	// Overlay.
	share := cfg.NodeShare
	if share == nil {
		share = geo.DefaultNodeShare
	}
	c.network = p2p.NewNetwork(engine, rootRNG.Fork("network"), cfg.Latency)
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
	if cfg.KademliaWiring {
		if err := wireKademlia(c.network, rootRNG.Fork("discovery"), cfg.Degree); err != nil {
			return nil, fmt.Errorf("core: wire overlay (kademlia): %w", err)
		}
	} else {
		if err := c.network.WireRandom(cfg.Degree); err != nil {
			return nil, fmt.Errorf("core: wire overlay: %w", err)
		}
	}

	// Measurement nodes (attached before traffic starts, like the
	// study's month-long deployment).
	clockRNG := rootRNG.Fork("clocks")
	for _, spec := range cfg.Measurement {
		clock := geo.NewClock(clockRNG)
		if cfg.PerfectClocks {
			clock = geo.PerfectClock()
		}
		peers := spec.Peers
		if peers <= 0 {
			peers = cfg.NetworkNodes / 2
		}
		m, err := measure.Attach(c.network, measure.Options{
			Name:           spec.Name,
			Region:         spec.Region,
			Peers:          peers,
			CaptureTxLinks: cfg.CaptureTxLinks,
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
	gatewayPeers := cfg.NetworkNodes / 3
	if gatewayPeers < 2*cfg.Degree {
		gatewayPeers = 2 * cfg.Degree
	}
	c.poolIdx = make(map[string]int32, len(cfg.Mining.Pools))
	for _, pool := range cfg.Mining.Pools {
		var perRegion [geo.NumRegions + 1]*p2p.Node
		for _, r := range pool.GatewayRegions {
			gw, err := c.network.AddNode(r, 0)
			if err != nil {
				return nil, fmt.Errorf("core: gateway %s/%v: %w", pool.Name, r, err)
			}
			if err := c.network.ConnectSampleBiased(gw, gatewayPeers, 0.5); err != nil {
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
		// Degraded campaigns get the catch-up fetch: partition-era
		// ancestry is pulled after the heal, the way real clients
		// header-sync across an outage.
		c.network.ParentPull = true
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

	// Shard the transport last, after every build-time RNG draw
	// (wiring, gateways, fault schedule): per-lane streams fork from
	// the network RNG here, at a point that is the same no matter what
	// the rest of the configuration did.
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
		c.network.EnableSharding(cond, func() relay.Protocol {
			return relay.MustNew(cfg.Relay)
		})
		if c.injector != nil {
			c.injector.EnableSharding()
		}
	}
	return c, nil
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
			if uniformLookahead {
				bounds[i][j] = 1
				continue
			}
			d, err := m.MinPairDelay(from, to)
			if err != nil {
				panic(err) // unreachable: Regions() only yields valid regions
			}
			bounds[i][j] = d
		}
	}
	return bounds
}

// uniformLookahead forces the pre-topology uniform 1 ms matrix. Only
// shard_test.go sets it.
var uniformLookahead bool

// resolveShards maps the Shards knob (with the ETHREPRO_SHARDS
// fallback when unset) to a worker count: 0 single-engine, otherwise
// clamped to [1, NumRegions] — more workers than lanes cannot help.
// A variable that is not a count is an error: falling back to one lane
// would silently produce the other artifact family.
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
		c.engine.Run()
	}
	// Region lanes count privately: move their transport and protocol
	// counters into the network's public accounting before anything
	// reads it.
	c.network.FoldLanes()
	if c.injector != nil {
		c.injector.Finalize(c.now())
	}
	c.obsScope.Finish(obs.RunSample{
		Engine:   c.engineStats(),
		Messages: c.network.MessagesSent,
		Bytes:    c.network.BytesSent,
		Dropped:  c.network.MessagesDropped,
		Nodes:    c.network.Len(),
		Shard:    c.shardSample(),
	})

	ds, err := analysis.MergeNodes(c.nodes)
	if err != nil {
		return nil, fmt.Errorf("core: merge logs: %w", err)
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
		Dataset:            ds,
		Index:              idx,
		View:               view,
		Tree:               c.miners.Tree(),
		Nodes:              c.nodes,
		MultiVersionTuples: c.miners.MultiVersionTuples(),
		MessagesSent:       c.network.MessagesSent,
		BytesSent:          c.network.BytesSent,
		MessagesDropped:    c.network.MessagesDropped,
		Bandwidth:          c.bandwidth(),
		Duration:           c.now(),
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

// now returns the run's time frontier: the last executed event across
// lanes when sharded, the engine clock otherwise. The sharded branch
// deliberately avoids Conductor.Now — final lane clocks sit at granted
// deadlines, whose overshoot past the last event depends on the
// lookahead bound matrix, and this frontier feeds artifacts (campaign
// Duration, fault-outage truncation) that must not.
func (c *Campaign) now() sim.Time {
	if c.cond != nil {
		return c.cond.Frontier()
	}
	return c.engine.Now()
}

// engineStats snapshots the run's engine counters: the single engine's
// unsharded, or the cross-lane aggregate — counter sums, max clock,
// summed queue high-water marks (total in-flight depth) — sharded.
func (c *Campaign) engineStats() sim.EngineStats {
	if c.cond == nil {
		return c.engine.Stats()
	}
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

// laneStats returns per-lane engine snapshots, global lane first.
func (c *Campaign) laneStats() []sim.EngineStats {
	out := make([]sim.EngineStats, 0, geo.NumRegions+1)
	out = append(out, c.cond.Global().Stats())
	for r := 0; r < c.cond.Regions(); r++ {
		out = append(out, c.cond.Lane(r).Stats())
	}
	return out
}

// shardSample builds the telemetry record for a sharded run (nil
// single-engine).
func (c *Campaign) shardSample() *obs.ShardSample {
	if c.cond == nil {
		return nil
	}
	cs := c.cond.Stats()
	return &obs.ShardSample{
		Workers:       c.shards,
		Windows:       cs.Windows,
		GlobalWindows: cs.GlobalWindows,
		LaneWindows:   cs.LaneWindows,
		Stalled:       cs.Stalled,
		Merged:        cs.Merged,
		Lanes:         c.laneStats(),
		Pairs:         cs.Pairs,
	}
}

// bandwidth assembles the per-protocol transport accounting from the
// network's class counters, the measurement nodes' ingress/egress and
// the relay protocol's reconstruction counters.
func (c *Campaign) bandwidth() *analysis.Bandwidth {
	proto := c.network.Relay()
	b := &analysis.Bandwidth{
		Protocol:        proto.Mode().String(),
		TotalMessages:   c.network.MessagesSent,
		TotalBytes:      c.network.BytesSent,
		DroppedMessages: c.network.MessagesDropped,
		Blocks:          c.cfg.Blocks,
	}
	for _, ct := range c.network.ClassTotals() {
		b.Classes = append(b.Classes, analysis.BandwidthClass{
			Name: ct.Kind.String(), Messages: ct.Messages, Bytes: ct.Bytes,
		})
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
	ctr := proto.Counters()
	b.Reconstruction = analysis.Reconstruction{
		SketchesSent:     ctr.SketchesSent,
		SketchesReceived: ctr.SketchesReceived,
		Full:             ctr.ReconstructFull,
		Partial:          ctr.ReconstructPartial,
		Fallback:         ctr.ReconstructFallback,
		MissingTxs:       ctr.MissingTxs,
		MissingTxBytes:   ctr.MissingTxBytes,
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
// measurement nodes): the ground-truth tree viewed directly.
type ChainOnlyResult struct {
	Tree               *chain.BlockTree
	View               *analysis.ChainView
	MultiVersionTuples map[types.Hash]int
	// PublishTimes records when each block was published (for honest
	// miners, its mining time; for withholders, the burst release
	// time). Feed to analysis.DetectWithholding.
	PublishTimes map[types.Hash]sim.Time
}

// RunChainOnly executes the mining model without a network overlay.
// The fork/uncle/empty-block/sequence statistics (Figs. 6-7, Table
// III, §III-C5, §III-D) are chain-level properties; skipping gossip
// lets these experiments run at the paper's 200k-block (and beyond)
// scale.
func RunChainOnly(seed uint64, blocks uint64, mutate func(*mining.Config)) (*ChainOnlyResult, error) {
	if blocks == 0 {
		return nil, errors.New("core: chain-only run needs blocks > 0")
	}
	engine := sim.NewEngine()
	rng := sim.NewRNG(seed)
	cfg := mining.DefaultConfig()
	cfg.BlockLimit = blocks
	if mutate != nil {
		mutate(&cfg)
	}
	// One published block per height, plus ~1% extra same-miner versions.
	publish := make(map[types.Hash]sim.Time, blocks+blocks/32)
	userHook := cfg.OnBlock
	cfg.OnBlock = func(ev mining.BlockEvent) {
		// Plain assignment keeps the first publish time: a hash can
		// only repeat when one pool wins twice in the same millisecond
		// on the same parent with the same body, i.e. at the same Now.
		publish[ev.Block.Hash()] = ev.Now
		if userHook != nil {
			userHook(ev)
		}
	}
	s, err := mining.NewSimulator(engine, rng, cfg)
	if err != nil {
		return nil, err
	}
	scope := obs.Default.StartRun(seed, engine)
	scope.RunStarted()
	s.Start()
	engine.Run()
	scope.Finish(obs.RunSample{Engine: engine.Stats()})
	view, err := analysis.ViewFromTree(s.Tree())
	if err != nil {
		return nil, err
	}
	return &ChainOnlyResult{
		Tree:               s.Tree(),
		View:               view,
		MultiVersionTuples: s.MultiVersionTuples(),
		PublishTimes:       publish,
	}, nil
}
