package mining

import (
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

// BlockEvent is delivered to the simulation's block hook for every
// produced block version.
type BlockEvent struct {
	// Now is the production time.
	Now sim.Time
	// Block is the produced block (one event per version for
	// one-miner forks).
	Block *types.Block
	// Pool is the producing pool's name.
	Pool string
	// Gateway is the region whose gateway injects this block into the
	// network.
	Gateway geo.Region
	// Version is 0 for the primary block and >0 for extra one-miner
	// versions at the same height.
	Version int
	// ExtendedHead reports whether the block extended the global
	// heaviest chain when produced (false for fork blocks).
	ExtendedHead bool
}

// Config parameterizes a mining simulation.
type Config struct {
	// Pools is the pool registry; shares must sum to ~1.
	Pools []PoolConfig
	// InterBlockMean is the nominal network-wide mean block interval
	// (post-Constantinople mainnet: 13.3 s). Together with
	// InitialDifficulty it fixes the network hashrate
	// (InitialDifficulty/InterBlockMean difficulty units per ms); the
	// actual interval then varies with difficulty like the real
	// system, equilibrating back at InterBlockMean under the default
	// difficulty parameters.
	InterBlockMean sim.Time
	// InitialDifficulty seeds the genesis difficulty. Chosen so that
	// cumulative difficulty stays far from uint64 range even over
	// whole-chain (7.7M-block) horizons.
	InitialDifficulty uint64
	// BlockLimit stops production after this many block heights have
	// been attempted. 0 means no limit (the caller must Stop).
	BlockLimit uint64
	// Difficulty is the difficulty schedule.
	Difficulty chain.DifficultyParams
	// Uncles is the uncle validity rule set (flip
	// RestrictOneMinerUncles for the §V Lesson-1 ablation).
	Uncles chain.UncleRules
	// GatewayDelay is the base one-way delay between pool gateways
	// before the per-pool switch delay is added.
	GatewayDelay sim.Time
	// GasLimit is the block gas limit (mainnet 2019: 8M).
	GasLimit uint64
	// TxPool, when set, supplies real transactions for block bodies.
	// When nil, non-empty blocks carry a single synthetic filler
	// transaction so empty-block statistics remain meaningful at
	// 200k-block scale without a transaction workload.
	TxPool *chain.TxPool
	// VisibilityFilter, when set, gates inter-pool head visibility: it
	// is called when a deferred visibility update is about to apply,
	// with the producing pool's home gateway region and the observing
	// pool's, and returns how much longer the update must wait (0 =
	// apply now). Fault campaigns use it to model gateway-level
	// partitions — pools on opposite sides keep mining their own heads
	// until the cut heals, which is what creates partition forks. The
	// filter must be deterministic; it is consulted on the hot path
	// only when set, so healthy runs are unchanged.
	VisibilityFilter func(now sim.Time, from, to geo.Region) sim.Time
	// OnBlock, when set, receives every produced block version.
	OnBlock func(BlockEvent)
	// OnDone, when set, fires once when BlockLimit heights have been
	// produced (never fires for unlimited runs).
	OnDone func(now sim.Time)
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Pools:             PaperPools(),
		InterBlockMean:    13300 * sim.Millisecond,
		InitialDifficulty: 300_000_000_000,
		Difficulty:        chain.DefaultDifficultyParams(),
		Uncles:            chain.DefaultUncleRules(),
		GatewayDelay:      150 * sim.Millisecond,
		GasLimit:          8_000_000,
	}
}

// poolState tracks one pool's runtime view.
type poolState struct {
	cfg     PoolConfig
	headTD  uint64
	head    types.Hash
	address types.Address
	// home is the pool's control-plane region (its first-listed
	// gateway region), the endpoint the visibility filter sees. Chosen
	// statically so partition support adds no RNG draws to the mining
	// stream.
	home geo.Region
	// private is a withholding pool's unpublished chain, oldest first
	// (always empty for honest pools).
	private []*types.Block
}

// Simulator produces blocks onto a shared block tree according to the
// Poisson race + per-pool visibility model described in the package
// comment.
type Simulator struct {
	engine  *sim.Engine
	rng     *sim.RNG
	cfg     Config
	tree    *chain.BlockTree
	tracker *chain.UncleTracker
	pools   []*poolState
	// sampler picks the winning pool per race, precomputed from the
	// hashrate shares (one uniform draw + binary search per block
	// instead of an O(pools) scan).
	sampler *sim.Weighted
	// raceTimer drives the Poisson race: one pooled timer handle,
	// rescheduled per win and cancelled by Stop — no tombstone events.
	raceTimer *sim.Timer

	// visSlab holds pending per-pool head-visibility updates for the
	// typed event path; entries are refcounted across the pools that
	// share one block's update and recycled through visFree.
	visSlab []visUpdate
	visFree []int32

	produced   uint64
	fillerSeq  uint64
	stopped    bool
	doneFired  bool
	multiTuple map[types.Hash]int // primary hash -> total versions
}

// visUpdate is one block's deferred visibility: pools that see the
// block after gateway + switch delay adopt it as head if it is still
// the heaviest they know. from records the producing pool's home
// region for the partition filter.
type visUpdate struct {
	td   uint64
	head types.Hash
	refs int
	from geo.Region
}

// ErrNoPools indicates an empty registry.
var ErrNoPools = errors.New("mining: no pools configured")

// NewSimulator validates the configuration and prepares a simulator
// rooted at a fresh genesis.
func NewSimulator(engine *sim.Engine, rng *sim.RNG, cfg Config) (*Simulator, error) {
	if engine == nil || rng == nil {
		return nil, errors.New("mining: nil engine or rng")
	}
	if err := ValidatePools(cfg.Pools); err != nil {
		return nil, err
	}
	if cfg.InterBlockMean <= 0 {
		return nil, fmt.Errorf("mining: inter-block mean %v <= 0", cfg.InterBlockMean)
	}
	if cfg.GasLimit == 0 {
		return nil, errors.New("mining: zero gas limit")
	}
	if cfg.InitialDifficulty == 0 {
		cfg.InitialDifficulty = cfg.Difficulty.MinimumDifficulty
	}
	genesis := chain.NewGenesis(cfg.InitialDifficulty, cfg.GasLimit)
	tree := chain.NewBlockTree(genesis)
	s := &Simulator{
		engine:     engine,
		rng:        rng,
		cfg:        cfg,
		tree:       tree,
		tracker:    chain.NewUncleTracker(),
		multiTuple: make(map[types.Hash]int),
	}
	weights := make([]float64, 0, len(cfg.Pools))
	for _, pc := range cfg.Pools {
		s.pools = append(s.pools, &poolState{
			cfg:     pc,
			head:    genesis.Hash(),
			headTD:  genesis.Header.Difficulty,
			address: pc.Address(),
			home:    pc.GatewayRegions[0],
		})
		weights = append(weights, pc.HashrateShare)
	}
	sampler, err := sim.NewWeighted(weights)
	if err != nil {
		// ValidatePools guarantees shares sum to ~1.
		return nil, fmt.Errorf("mining: pool shares: %w", err)
	}
	s.sampler = sampler
	s.raceTimer = engine.NewTimer(s.raceWin)
	return s, nil
}

// Tree exposes the block tree (shared, read by analysis after the
// run).
func (s *Simulator) Tree() *chain.BlockTree { return s.tree }

// NextInjectionAt returns the earliest simulated time at which the
// simulator might next publish a block into the overlay, or sim.Never
// when no race is pending (stopped, or the block limit was reached).
// Every injection — primary blocks, extra same-miner versions and
// withheld-chain releases — happens synchronously inside a race-win
// event, so the pending race timer's deadline bounds them all. The
// remaining typed mining events are per-pool head-visibility updates,
// which touch pool state only; sharded campaigns use this as the
// conductor's GlobalHorizon so those updates never pin region-lane
// deadlines. Reads the timer only — no RNG draws, no state changes.
func (s *Simulator) NextInjectionAt() sim.Time {
	if at, ok := s.raceTimer.When(); ok {
		return at
	}
	return sim.Never
}

// Produced returns the number of block heights attempted so far.
func (s *Simulator) Produced() uint64 { return s.produced }

// MultiVersionTuples returns, for each primary block that received
// extra same-miner versions, the total version count (2 = pair,
// 3 = triple, ...).
func (s *Simulator) MultiVersionTuples() map[types.Hash]int {
	out := make(map[types.Hash]int, len(s.multiTuple))
	for k, v := range s.multiTuple {
		out[k] = v
	}
	return out
}

// Start schedules the first block win. Production continues until
// BlockLimit heights or Stop.
func (s *Simulator) Start() {
	s.stopped = false
	s.scheduleNext()
}

// Stop halts further block production: the pending race win is
// cancelled outright instead of firing as a dead event.
func (s *Simulator) Stop() {
	s.stopped = true
	s.raceTimer.Stop()
}

func (s *Simulator) scheduleNext() {
	if s.stopped {
		return
	}
	if s.cfg.BlockLimit > 0 && s.produced >= s.cfg.BlockLimit {
		s.fireDone(s.engine.Now())
		return
	}
	// The time to the next win scales with the chain-head difficulty
	// over the fixed network hashrate, closing the control loop the
	// real difficulty schedule relies on.
	headDifficulty := s.tree.Head().Header.Difficulty
	mean := sim.Time(float64(headDifficulty) / float64(s.cfg.InitialDifficulty) * float64(s.cfg.InterBlockMean))
	if mean < 1 {
		mean = 1
	}
	s.raceTimer.Reset(s.rng.ExpTime(mean))
}

// raceWin is the race timer's callback: execute one win, schedule the
// next.
func (s *Simulator) raceWin(now sim.Time) {
	if s.stopped || (s.cfg.BlockLimit > 0 && s.produced >= s.cfg.BlockLimit) {
		return
	}
	s.mineOne(now)
	s.scheduleNext()
}

func (s *Simulator) fireDone(now sim.Time) {
	if s.doneFired || s.cfg.OnDone == nil {
		s.doneFired = true
		return
	}
	s.doneFired = true
	s.cfg.OnDone(now)
}

// mineOne executes one win of the mining race.
func (s *Simulator) mineOne(now sim.Time) {
	s.produced++
	pool := s.pools[s.sampler.Sample(s.rng)]
	if pool.cfg.Withholder {
		s.mineWithheld(now, pool)
		return
	}
	parent, ok := s.tree.Block(pool.head)
	if !ok {
		return
	}

	gap := now - sim.Time(parent.Header.TimeMillis)
	difficulty := chain.NextDifficulty(s.cfg.Difficulty, parent.Header.Difficulty, gap, parent.Header.Number+1)

	empty := s.rng.Bernoulli(pool.cfg.EmptyBlockProb)
	txs := s.buildBody(empty)
	uncleBlocks := s.tree.SelectUncleBlocks(s.cfg.Uncles, pool.head, s.tracker)
	var uncles []types.Header
	for _, u := range uncleBlocks {
		uncles = append(uncles, u.Header)
	}

	header := types.Header{
		ParentHash: pool.head,
		Number:     parent.Header.Number + 1,
		Miner:      pool.address,
		MinerLabel: pool.cfg.Name,
		TimeMillis: uint64(now),
		Difficulty: difficulty,
		GasLimit:   s.cfg.GasLimit,
		GasUsed:    uint64(len(txs)) * types.TxGas,
	}
	primary := types.NewBlock(header, txs, uncles)
	extended := s.insert(now, primary, pool)
	for _, u := range uncleBlocks {
		s.tracker.MarkUsed(u.Hash())
	}
	if extended && s.cfg.TxPool != nil && len(txs) > 0 {
		// Main-chain extension: consume the included transactions.
		// Commit failure would mean the block was built against a
		// different pool state, which cannot happen here.
		_ = s.cfg.TxPool.Commit(txs)
	}
	s.emit(BlockEvent{Now: now, Block: primary, Pool: pool.cfg.Name, Gateway: s.gateway(pool), Version: 0, ExtendedHead: extended})

	s.mineExtraVersions(now, pool, header, txs, primary)
	// A public block threatens any private chain it catches up with.
	s.maybeTriggerReleases(now, primary.Header.Number)
}

// mineExtraVersions models the paper's one-miner forks: with
// MultiVersionProb the pool publishes extra versions of the block at
// the same height, mostly with the identical transaction set (56%),
// occasionally diverging.
func (s *Simulator) mineExtraVersions(now sim.Time, pool *poolState, header types.Header, txs []*types.Transaction, primary *types.Block) {
	if !s.rng.Bernoulli(pool.cfg.MultiVersionProb) {
		return
	}
	versions := 2
	// Tuple-size tail matching §III-C5: overwhelmingly pairs, ~1.4%
	// triples, isolated larger tuples.
	for versions < 7 && s.rng.Bernoulli(0.015) {
		versions++
	}
	sameTx := s.rng.Bernoulli(pool.cfg.MultiVersionSameTxProb)
	for v := 1; v < versions; v++ {
		vh := header
		vh.Extra = uint64(v)
		vtxs := txs
		if !sameTx {
			vtxs = s.buildBody(len(txs) == 0)
		}
		// Extra versions reference no uncles; they are the uncles.
		vb := types.NewBlock(vh, vtxs, nil)
		extended := s.insert(now, vb, pool)
		s.emit(BlockEvent{Now: now, Block: vb, Pool: pool.cfg.Name, Gateway: s.gateway(pool), Version: v, ExtendedHead: extended})
	}
	s.multiTuple[primary.Hash()] = versions
}

// The synthetic filler transaction's endpoints.
var (
	fillerSender = types.AddressFromString("filler")
	fillerSink   = types.AddressFromString("sink")
)

// buildBody assembles a block body: empty when the empty-block policy
// fires, otherwise real transactions from the pool (when configured)
// or a synthetic filler.
func (s *Simulator) buildBody(empty bool) []*types.Transaction {
	if empty {
		return nil
	}
	if s.cfg.TxPool != nil {
		if txs := s.cfg.TxPool.Select(s.cfg.GasLimit); len(txs) > 0 {
			return txs
		}
		// An exhausted pool still yields a filler so "empty block"
		// remains a policy signal, not a workload artifact.
	}
	s.fillerSeq++
	return []*types.Transaction{{
		Sender:   fillerSender,
		To:       fillerSink,
		Nonce:    s.fillerSeq,
		Value:    1,
		GasPrice: 1,
		Gas:      types.TxGas,
	}}
}

// insert adds a block to the tree and schedules per-pool visibility
// updates. It reports whether the global head moved.
func (s *Simulator) insert(now sim.Time, b *types.Block, miner *poolState) bool {
	reorged, err := s.tree.Add(b)
	if err != nil {
		return false
	}
	td, tdErr := s.tree.TotalDifficulty(b.Hash())
	if tdErr != nil {
		return reorged
	}
	// The miner sees its own block instantly.
	if td > miner.headTD {
		miner.head = b.Hash()
		miner.headTD = td
	}
	// Other pools see it after gateway propagation plus their switch
	// delay. The update is a typed event over a refcounted slab entry
	// shared by every pool — no per-pool closure.
	if len(s.pools) > 1 {
		var idx int32
		if n := len(s.visFree); n > 0 {
			idx = s.visFree[n-1]
			s.visFree = s.visFree[:n-1]
		} else {
			s.visSlab = append(s.visSlab, visUpdate{})
			idx = int32(len(s.visSlab) - 1)
		}
		s.visSlab[idx] = visUpdate{td: td, head: b.Hash(), refs: len(s.pools) - 1, from: miner.home}
		for pi, q := range s.pools {
			if q == miner {
				continue
			}
			delay := s.cfg.GatewayDelay + s.rng.ExpTime(q.cfg.SwitchDelayMean)
			s.engine.ScheduleCall(delay, s, uint64(pi), uint64(idx))
		}
	}
	return reorged
}

// HandleEvent implements sim.Handler: apply one pool's deferred
// head-visibility update (a = pool index, b = visSlab index). A
// visibility filter can push the update past a partition heal; the
// slab entry's refcount is untouched while the update is in limbo.
func (s *Simulator) HandleEvent(now sim.Time, a, b uint64) {
	q := s.pools[a]
	u := &s.visSlab[b]
	if s.cfg.VisibilityFilter != nil {
		if d := s.cfg.VisibilityFilter(now, u.from, q.home); d > 0 {
			s.engine.ScheduleCall(d, s, a, b)
			return
		}
	}
	if u.td > q.headTD {
		q.head = u.head
		q.headTD = u.td
	}
	u.refs--
	if u.refs == 0 {
		s.visFree = append(s.visFree, int32(b))
	}
}

// EventName implements sim.EventNamer: every typed mining event is a
// deferred head-visibility update (a is the pool index, so engine
// traces bucket them all under one label).
func (s *Simulator) EventName(uint64) string { return "mining.visibility" }

func (s *Simulator) gateway(p *poolState) geo.Region {
	regions := p.cfg.GatewayRegions
	return regions[s.rng.IntN(len(regions))]
}

func (s *Simulator) emit(ev BlockEvent) {
	if s.cfg.OnBlock != nil {
		s.cfg.OnBlock(ev)
	}
}
