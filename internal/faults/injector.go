package faults

import (
	"errors"
	"strconv"

	"repro/internal/discovery"
	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// Injector drives a Config against a live network. It runs entirely
// on the campaign's event engine: the recurring crash and churn
// processes are cancellable timers (stopped when the workload
// completes, so the run drains), recoveries are one-shot typed events,
// and the partition schedule is consulted statically — a partition
// costs zero queue entries.
//
// Determinism: every random choice draws from the injector's own RNG
// fork, so adding faults never perturbs another subsystem's stream,
// and the fault schedule is a pure function of the campaign seed.
type Injector struct {
	engine *sim.Engine
	rng    *sim.RNG
	net    *p2p.Network
	cfg    Config
	degree int

	// Per-node state lives in dense slices indexed by NodeID-1 — IDs
	// are sequential and never reused, so a slice slot per node beats a
	// map entry; churn joins grow the slices (see slot).
	//
	// protected nodes never crash or leave: measurement vantage points
	// and pool gateways, matching the paper's always-on infrastructure.
	protected []bool
	// eligible is the index-addressed crash/leave candidate pool; pos
	// is each node's index into it (-1 when absent).
	eligible []*p2p.Node
	pos      []int32

	// Discovery substrate for peer-table rewiring: recovered and
	// freshly joined nodes redial through converged Kademlia tables,
	// the way a restarted devp2p client refills its peer set. toDisc
	// is dense (hasDisc marks registered nodes); fromDisc stays a map
	// because discovery IDs are hashes, not dense indices.
	universe *discovery.Universe
	toDisc   []discovery.NodeID
	hasDisc  []bool
	fromDisc map[discovery.NodeID]*p2p.Node

	crashTimer *sim.Timer
	churnTimer *sim.Timer
	stopped    bool

	// downSince is each node's crash start (-1 when up); downCount
	// tracks how many are currently down.
	downSince []sim.Time
	downCount int
	stats     Stats

	// FilterLink state, indexed by the sender's geo.Region (slot 0
	// unused): the loss-model RNG stream and the partition/loss drop
	// counts, which Stats sums. A region lane only ever sends for its
	// own nodes, and the global lane's phase-A sends run while every
	// region engine is idle, so region-keyed state is single-writer even
	// when region lanes call FilterLink concurrently. Every laneRNG slot
	// is the injector's own stream until EnableSharding forks them.
	laneRNG  [geo.NumRegions + 1]*sim.RNG
	lanePart [geo.NumRegions + 1]uint64
	laneLoss [geo.NumRegions + 1]uint64
}

// slot returns the dense index for id, growing the per-node slices to
// cover it (churn joins allocate fresh IDs past the initial overlay).
func (inj *Injector) slot(id p2p.NodeID) int32 {
	i := int32(id - 1)
	for int(i) >= len(inj.pos) {
		inj.protected = append(inj.protected, false)
		inj.pos = append(inj.pos, -1)
		inj.downSince = append(inj.downSince, -1)
		inj.toDisc = append(inj.toDisc, discovery.NodeID{})
		inj.hasDisc = append(inj.hasDisc, false)
	}
	return i
}

// Typed event opcodes for HandleEvent.
const opRecover uint64 = iota

// rewire attempt budget multiplier (mirrors WireRandom's 20x).
const rewireAttemptFactor = 20

// New validates the configuration and prepares an injector over the
// network's current membership. protected nodes (measurement peers,
// pool gateways) are exempt from crashes and departures. degree is the
// dial-out count for rewired and joining nodes.
func New(engine *sim.Engine, rng *sim.RNG, net *p2p.Network, cfg Config, degree int, protected []*p2p.Node) (*Injector, error) {
	if engine == nil || rng == nil || net == nil {
		return nil, errors.New("faults: nil engine, rng or network")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, errors.New("faults: config enables no fault class")
	}
	if degree < 1 {
		degree = 1
	}
	inj := &Injector{
		engine: engine,
		rng:    rng,
		net:    net,
		cfg:    cfg,
		degree: degree,
	}
	for r := range inj.laneRNG {
		inj.laneRNG[r] = rng
	}
	for _, n := range protected {
		if n != nil {
			inj.protected[inj.slot(n.ID())] = true
		}
	}
	for i := 0; i < net.Len(); i++ {
		n := net.NodeAt(i)
		s := inj.slot(n.ID())
		if inj.protected[s] {
			continue
		}
		inj.pos[s] = int32(len(inj.eligible))
		inj.eligible = append(inj.eligible, n)
	}
	// The discovery universe is only needed when membership changes
	// (crash rewiring, churn dialing); partition/loss-only campaigns
	// skip the bootstrap cost entirely.
	if cfg.Crash != nil || cfg.Churn != nil {
		if err := inj.buildUniverse(); err != nil {
			return nil, err
		}
	}
	return inj, nil
}

// buildUniverse joins every current overlay node into a discovery
// universe and converges it, in insertion order for determinism.
func (inj *Injector) buildUniverse() error {
	u, err := discovery.NewUniverse(discovery.DefaultBucketSize)
	if err != nil {
		return err
	}
	inj.universe = u
	inj.fromDisc = make(map[discovery.NodeID]*p2p.Node, inj.net.Len())
	for i := 0; i < inj.net.Len(); i++ {
		n := inj.net.NodeAt(i)
		if err := inj.joinUniverse(n); err != nil {
			return err
		}
	}
	return inj.universe.Bootstrap(inj.rng, 3, 1)
}

// joinUniverse registers one node with the discovery substrate.
func (inj *Injector) joinUniverse(n *p2p.Node) error {
	id := discovery.IDFromLabel("fault-node-" + strconv.Itoa(int(n.ID())))
	if err := inj.universe.Join(id); err != nil {
		return err
	}
	s := inj.slot(n.ID())
	inj.toDisc[s] = id
	inj.hasDisc[s] = true
	inj.fromDisc[id] = n
	return nil
}

// Start schedules the recurring fault processes. Partitions need no
// scheduling: the link filter and visibility deferral consult the
// static schedule.
func (inj *Injector) Start() {
	inj.stopped = false
	if c := inj.cfg.Crash; c != nil {
		inj.crashTimer = inj.engine.NewTimer(inj.crashTick)
		inj.crashTimer.Reset(inj.interval(c.MeanBetween))
	}
	if c := inj.cfg.Churn; c != nil {
		inj.churnTimer = inj.engine.NewTimer(inj.churnTick)
		inj.churnTimer.Reset(inj.interval(c.MeanBetween))
	}
}

// Stop cancels the recurring processes (pending recoveries still
// complete, so the engine drains). Called when the campaign's workload
// finishes.
func (inj *Injector) Stop() {
	inj.stopped = true
	if inj.crashTimer != nil {
		inj.crashTimer.Stop()
	}
	if inj.churnTimer != nil {
		inj.churnTimer.Stop()
	}
}

// interval draws the next process interval, floored at one tick so a
// zero exponential draw cannot spin the clock in place.
func (inj *Injector) interval(mean sim.Time) sim.Time {
	d := inj.rng.ExpTime(mean)
	if d < 1 {
		d = 1
	}
	return d
}

// crashTick fires one crash event and reschedules itself.
func (inj *Injector) crashTick(now sim.Time) {
	if inj.stopped {
		return
	}
	c := inj.cfg.Crash
	if c.MaxCrashes > 0 && inj.stats.Crashes >= c.MaxCrashes {
		return
	}
	if len(inj.eligible) > 0 {
		victim := inj.eligible[inj.rng.IntN(len(inj.eligible))]
		inj.crash(now, victim)
	}
	inj.crashTimer.Reset(inj.interval(c.MeanBetween))
}

// crash takes a node down and schedules its recovery.
func (inj *Injector) crash(now sim.Time, victim *p2p.Node) {
	inj.net.CrashNode(victim)
	inj.removeEligible(victim)
	inj.downSince[inj.slot(victim.ID())] = now
	inj.downCount++
	inj.stats.Crashes++
	down := inj.interval(inj.cfg.Crash.MeanDowntime)
	inj.engine.ScheduleCall(down, inj, opRecover, uint64(victim.ID()))
}

// EventName implements sim.EventNamer for engine traces.
func (inj *Injector) EventName(op uint64) string {
	if op == opRecover {
		return "faults.recover"
	}
	return "faults.unknown"
}

// HandleEvent implements sim.Handler for the one-shot recovery events.
func (inj *Injector) HandleEvent(now sim.Time, op, arg uint64) {
	if op != opRecover {
		return
	}
	node, err := inj.net.Node(p2p.NodeID(arg))
	if err != nil {
		return
	}
	inj.recover(now, node)
}

// recover brings a crashed node back and rewires its peer table.
func (inj *Injector) recover(now sim.Time, n *p2p.Node) {
	if !n.Down() {
		return
	}
	inj.net.RecoverNode(n)
	inj.stats.Recoveries++
	if s := inj.slot(n.ID()); inj.downSince[s] >= 0 {
		inj.stats.CrashDowntime += now - inj.downSince[s]
		inj.downSince[s] = -1
		inj.downCount--
	}
	inj.rewire(n)
	inj.addEligible(n)
}

// rewire redials a node's peer table: discovery-table samples first
// (the restarted client's stored neighbors), random top-up after, so
// a node always comes back with close to `degree` connections even
// when its remembered neighbors are down.
func (inj *Injector) rewire(n *p2p.Node) {
	dialed := 0
	// Connect treats an already-connected pair as a nil-error no-op, so
	// count only dials that add a new edge — otherwise repeat picks
	// would leave the node systematically under-connected.
	dial := func(target *p2p.Node) {
		if target.ID() == n.ID() || target.Down() || inj.net.Connected(n, target) {
			return
		}
		if err := inj.net.Connect(n, target); err == nil {
			dialed++
		}
	}
	if inj.universe != nil {
		if s := inj.slot(n.ID()); inj.hasDisc[s] {
			peers, err := inj.universe.SamplePeers(inj.rng, inj.toDisc[s], 2*inj.degree)
			if err == nil {
				for _, pid := range peers {
					if dialed >= inj.degree {
						break
					}
					if target, ok := inj.fromDisc[pid]; ok {
						dial(target)
					}
				}
			}
		}
	}
	for attempts := 0; dialed < inj.degree && attempts < rewireAttemptFactor*inj.degree; attempts++ {
		dial(inj.net.NodeAt(inj.rng.IntN(inj.net.Len())))
	}
}

// churnTick fires one churn event (join or leave) and reschedules.
func (inj *Injector) churnTick(now sim.Time) {
	if inj.stopped {
		return
	}
	c := inj.cfg.Churn
	if c.MaxEvents > 0 && inj.stats.Joins+inj.stats.Leaves >= c.MaxEvents {
		return
	}
	if inj.rng.Bernoulli(c.joinFraction()) {
		inj.join(now)
	} else if len(inj.eligible) > 0 {
		victim := inj.eligible[inj.rng.IntN(len(inj.eligible))]
		inj.leave(victim)
	}
	inj.churnTimer.Reset(inj.interval(c.MeanBetween))
}

// join adds a fresh node to the overlay: its region follows the live
// population (sampled from the eligible pool, which holds exactly the
// up, unprotected nodes — departed nodes never skew the mix), it
// learns the network through a discovery lookup, and dials `degree`
// peers.
func (inj *Injector) join(now sim.Time) {
	var region geo.Region
	if len(inj.eligible) > 0 {
		region = inj.eligible[inj.rng.IntN(len(inj.eligible))].Region()
	} else {
		region = inj.net.NodeAt(inj.rng.IntN(inj.net.Len())).Region()
	}
	n, err := inj.net.AddNode(region, 0)
	if err != nil {
		return
	}
	inj.stats.Joins++
	if inj.universe != nil {
		if err := inj.joinUniverse(n); err == nil {
			id := inj.toDisc[inj.slot(n.ID())]
			table, err := inj.universe.Table(id)
			if err == nil {
				// Seed the newcomer with bootstrap contacts, then one
				// self-lookup to converge its buckets — the discv4 join
				// sequence in miniature.
				for s := 0; s < 3 && inj.net.Len() > 1; s++ {
					contact := inj.net.NodeAt(inj.rng.IntN(inj.net.Len()))
					if cs := inj.slot(contact.ID()); inj.hasDisc[cs] && inj.toDisc[cs] != id {
						_, _ = table.Add(inj.toDisc[cs])
					}
				}
				_, _ = inj.universe.Lookup(id, id, 3)
			}
		}
	}
	inj.rewire(n)
	inj.addEligible(n)
}

// leave removes a node permanently: connections drop and it never
// recovers. Departures are membership change, not failure, so they do
// not accrue downtime.
func (inj *Injector) leave(victim *p2p.Node) {
	inj.net.CrashNode(victim)
	inj.removeEligible(victim)
	inj.stats.Leaves++
}

// addEligible / removeEligible maintain the index-addressed candidate
// pool (swap-delete, O(1), deterministic).
func (inj *Injector) addEligible(n *p2p.Node) {
	s := inj.slot(n.ID())
	if inj.protected[s] || inj.pos[s] >= 0 {
		return
	}
	inj.pos[s] = int32(len(inj.eligible))
	inj.eligible = append(inj.eligible, n)
}

func (inj *Injector) removeEligible(n *p2p.Node) {
	s := inj.slot(n.ID())
	i := inj.pos[s]
	if i < 0 {
		return
	}
	last := len(inj.eligible) - 1
	moved := inj.eligible[last]
	inj.eligible[i] = moved
	inj.pos[inj.slot(moved.ID())] = i
	inj.eligible = inj.eligible[:last]
	inj.pos[s] = -1
}

// FilterLink implements p2p.LinkFilter: partition cuts drop the send,
// then the loss model gets its say. The sender's region selects both
// the loss RNG stream and the drop counters (see laneRNG); the
// partition check itself reads only the static schedule.
func (inj *Injector) FilterLink(now sim.Time, from, to *p2p.Node) (sim.Time, error) {
	r := from.Region()
	if len(inj.cfg.Partitions) > 0 && inj.cfg.separated(now, r, to.Region()) {
		inj.lanePart[r]++
		return 0, ErrPartitioned
	}
	var extra sim.Time
	if l := inj.cfg.Loss; l != nil {
		rng := inj.laneRNG[r]
		if l.DropProb > 0 && rng.Bernoulli(l.DropProb) {
			inj.laneLoss[r]++
			return 0, ErrLinkLoss
		}
		if l.ExtraDelayMean > 0 {
			extra = rng.ExpTime(l.ExtraDelayMean)
		}
	}
	return extra, nil
}

// EnableSharding prepares FilterLink for concurrent region-lane calls
// by forking one loss-model RNG stream per sender region — keyed by
// region, never by worker, so the fault schedule stays invariant across
// shard settings. Call it once, after construction, before the run
// starts.
func (inj *Injector) EnableSharding() {
	for r := geo.Region(1); r <= geo.NumRegions; r++ {
		inj.laneRNG[r] = inj.rng.Fork("loss-" + r.String())
	}
}

// VisibilityDeferral is the mining-side partition hook
// (mining.Config.VisibilityFilter): a head-visibility update crossing
// an active cut is deferred until the partition heals, so pools on
// opposite sides keep extending their own chains — the fork-rate
// mechanism spec D2 measures.
func (inj *Injector) VisibilityDeferral(now sim.Time, from, to geo.Region) sim.Time {
	return inj.cfg.healAfter(now, from, to)
}

// Finalize closes the books at the end of the run: still-down nodes
// accrue their outage up to the horizon, and the partition schedule is
// folded into total partition time.
func (inj *Injector) Finalize(now sim.Time) {
	for _, since := range inj.downSince {
		if since >= 0 {
			inj.stats.CrashDowntime += now - since
		}
	}
	inj.stats.DownAtEnd = inj.downCount
	for _, p := range inj.cfg.Partitions {
		start, end := p.Start, p.End()
		if end > now {
			end = now
		}
		if end > start {
			inj.stats.PartitionTime += end - start
		}
	}
}

// Stats returns a copy of the event accounting, summing the
// region-keyed drop counters on read. Call it only while no region lane
// is running.
func (inj *Injector) Stats() Stats {
	st := inj.stats
	for r := range inj.lanePart {
		st.DroppedPartition += inj.lanePart[r]
		st.DroppedLoss += inj.laneLoss[r]
	}
	return st
}
