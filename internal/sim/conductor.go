// Sharded intra-run execution: a Conductor advances several Engines —
// one "global" lane plus one lane per node partition — in conservative
// lookahead windows, so one big run can use multiple cores without
// giving up determinism.
//
// The decomposition is fixed: the lane layout, every lane's event
// schedule and every RNG draw are identical regardless of how many
// worker goroutines execute the region lanes. Worker count is purely a
// throughput knob, which is what makes sharded artifacts byte-identical
// across shard settings.
//
// Each window proceeds in three strictly ordered steps:
//
//  1. Merge: the owner-supplied Merge hook drains cross-lane traffic
//     buffered during the previous window into the destination lanes'
//     queues, in a deterministic order (the p2p layer sorts by
//     (arrival, source lane, emission index)).
//  2. Phase A: if the global lane owns the earliest event, it runs
//     solo up to that timestamp. The global lane is a pure source
//     (mining, workload, fault timers): it may touch any lane's state
//     directly because every region engine is idle here.
//  3. Phase B: region lanes run concurrently, each up to a per-lane
//     deadline no later than the earliest instant anything outside the
//     lane could affect it — the global lane's next lane-touching
//     event (next event, or the owner's GlobalHorizon when nearer
//     global events are certified internal), or another region lane's
//     next event plus the minimum cross-lane delay for that ordered
//     lane pair (SetBounds; uniform 1 ms — the transport's
//     MinDelayMillis floor — unless the owner installs a
//     topology-aware matrix).
//
// Region lanes never write each other's state; cross-lane sends go
// into per-source buffers and wait for the next Merge. That, plus the
// idle-engines rule in phase A, is the entire memory model.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"sync"
)

// maxTime is the "no constraint" sentinel for window deadlines.
const maxTime = Time(math.MaxInt64)

// Never is the GlobalHorizon return value declaring that no pending
// global-lane event can touch region-lane state.
const Never = Time(math.MaxInt64)

// WindowWidthBuckets is the number of log2 buckets in a per-pair
// window-width histogram: bucket 0 counts stalls (width 0), bucket k
// counts widths in [2^(k-1), 2^k) milliseconds, and the last bucket
// absorbs everything wider.
const WindowWidthBuckets = 16

// WidthBucket returns the histogram bucket index for a phase-B window
// width in milliseconds (0 = stalled).
func WidthBucket(width Time) int {
	if width <= 0 {
		return 0
	}
	n := bits.Len64(uint64(width))
	if n > WindowWidthBuckets-1 {
		n = WindowWidthBuckets - 1
	}
	return n
}

// PairWindowStats aggregates the phase-B windows in which one lane was
// the binding lookahead constraint on another. Like ConductorStats,
// every field is a pure function of the simulation.
type PairWindowStats struct {
	// Count is the number of windows the (src → dst) pair bound,
	// stalled windows included.
	Count uint64
	// Stalled counts the bound windows whose deadline preceded the
	// destination lane's next event (width 0, nothing ran).
	Stalled uint64
	// WidthSum is the total width in milliseconds across the bound
	// windows, where width = deadline − next(dst) + 1 is the span of
	// the destination lane's own pending work the window covered.
	WidthSum uint64
	// Widths is the log2 width histogram (see WindowWidthBuckets).
	Widths [WindowWidthBuckets]uint64
}

// ConductorStats counts window-loop activity. All fields are pure
// functions of the simulation (never of worker count or wall time), so
// they are safe to fold into deterministic telemetry.
type ConductorStats struct {
	// Windows counts barrier-to-barrier iterations that had any event.
	Windows uint64
	// GlobalWindows counts windows in which the global lane ran (phase A).
	GlobalWindows uint64
	// LaneWindows counts region-lane executions across all windows.
	LaneWindows uint64
	// Stalled counts lane-windows in which a region lane held pending
	// events but its lookahead deadline preceded all of them — the
	// conservative-lookahead stall metric.
	Stalled uint64
	// Merged counts cross-lane messages moved into destination queues.
	Merged uint64
	// Pairs[src][dst] aggregates the windows in which lane src was the
	// binding constraint on lane dst's deadline (lane indices: 0 is
	// the global lane, 1..N the region lanes; dst row 0 is unused).
	// Unconstrained drain windows — no other lane held events — are
	// counted in LaneWindows only.
	Pairs [][]PairWindowStats
}

// Conductor coordinates one global lane (index 0) and N region lanes
// (indices 1..N) through the window loop described in the package
// comment. It owns only scheduling; buffering and draining cross-lane
// traffic belongs to the transport via the Merge hook.
type Conductor struct {
	lanes []*Engine

	// Merge drains cross-lane buffers into destination lanes and
	// returns how many messages it moved. Called single-threaded at
	// every window start (all lanes idle). May be nil.
	Merge func() int

	// AfterGlobal runs single-threaded after each phase A, before any
	// region lane starts. The transport uses it to presize shared
	// append-only arenas (item bitsets, block bodies) so phase B never
	// reallocates them concurrently. May be nil.
	AfterGlobal func()

	// GlobalHorizon optionally reports the earliest simulated time at
	// which the global lane might next touch region-lane state (inject
	// a block at a node, flip a fault, submit a transaction). Global
	// events before that horizon are internal — they read and write
	// global-lane state only — and since region lanes never write
	// global state, region events commute with them: a region lane may
	// safely run past an internal global event's timestamp. When the
	// hook is set, phase B bounds each lane by
	// max(next(global), GlobalHorizon()) − 1 instead of
	// next(global) − 1, so a burst of internal bookkeeping events (for
	// example per-pool head-visibility updates after a block) no longer
	// pins every lane's deadline. The hook is consulted once per
	// window, after phase A, and must be a pure function of simulation
	// state — never of worker count or wall time. Returning any value
	// ≤ next(global) is always sound (it restores the conservative
	// bound); returning Never declares that nothing pending on the
	// global lane can touch a region lane. May be nil.
	GlobalHorizon func() Time

	// dist[j][i] (lane indices, region rows/cols only) is the minimum
	// total delay a causal chain of cross-lane messages originating in
	// region lane j can accumulate before it affects region lane i:
	// the all-pairs shortest path over the installed per-pair bound
	// matrix, with dist[i][i] the shortest round trip through another
	// lane (a lane's own emissions can be relayed back to it).
	// Initialized to the closure of the uniform 1 ms matrix.
	dist [][]Time

	stats ConductorStats
	pairs [][]PairWindowStats
}

// infTime marks "no path" entries in the bound closure. Kept well
// below maxTime so next[j]+dist-1 cannot overflow.
const infTime = maxTime / 4

// NewConductor creates a conductor with one global lane plus regions
// region lanes, all engines fresh at time zero.
func NewConductor(regions int) *Conductor {
	if regions < 1 {
		panic("sim: conductor needs at least one region lane")
	}
	c := &Conductor{lanes: make([]*Engine, 1+regions)}
	for i := range c.lanes {
		c.lanes[i] = NewEngine()
	}
	uniform := make([][]Time, regions)
	for i := range uniform {
		uniform[i] = make([]Time, regions)
		for j := range uniform[i] {
			uniform[i][j] = 1
		}
	}
	c.SetBounds(uniform)
	return c
}

// Global returns the global lane (mining, workload, fault timers).
func (c *Conductor) Global() *Engine { return c.lanes[0] }

// Lane returns region lane r (0-based region index).
func (c *Conductor) Lane(r int) *Engine { return c.lanes[1+r] }

// Regions returns the number of region lanes.
func (c *Conductor) Regions() int { return len(c.lanes) - 1 }

// SetBounds installs a per-lane-pair lookahead bound matrix:
// bounds[j][i] (0-based region indices) is the minimum delay any
// single cross-lane message from region lane j to region lane i can
// have. The owner must guarantee the bound — for the p2p transport it
// is the latency model's MinPairDelay, which faults can only lengthen
// (link extra-delay ≥ 0) or drop entirely (partitions), never
// undercut. Entries are clamped to at least 1 ms, the uniform default
// that is always sound for a transport honoring the MinDelayMillis
// floor. Must be called before Run.
//
// The deadline computation does not use the raw matrix directly: a
// lane is influenced not only by another lane's next message but by
// whole causal chains (j sends to k, k's relay sends onward to i), and
// a direct bound can exceed a two-hop path (in the default geo matrix
// WE→OC is bounded at 35 ms directly but only 31 ms via NA). SetBounds
// therefore stores the all-pairs shortest-path closure, including the
// diagonal as the shortest round trip through another lane — a lane's
// own emissions can be relayed back to it, so even a lane running solo
// may not outrun its own round-trip time. Ignoring either effect lets
// a lane's clock pass a future arrival, which the engine would then
// silently clamp forward (a late, physically wrong delivery); the
// transport's merge asserts this never happens.
func (c *Conductor) SetBounds(bounds [][]Time) {
	regions := len(c.lanes) - 1
	if len(bounds) != regions {
		panic("sim: bound matrix must be Regions()×Regions()")
	}
	// dist is 1-based on lane indices; row/col 0 (global) unused.
	dist := make([][]Time, 1+regions)
	dist[0] = make([]Time, 1+regions)
	for j := 0; j < regions; j++ {
		if len(bounds[j]) != regions {
			panic("sim: bound matrix must be Regions()×Regions()")
		}
		row := make([]Time, 1+regions)
		for i := 0; i < regions; i++ {
			v := bounds[j][i]
			if v < 1 {
				v = 1
			}
			if i == j {
				// Intra-lane sends never cross the merge; the diagonal
				// is recomputed below as the min round trip.
				v = infTime
			}
			row[1+i] = v
		}
		dist[1+j] = row
	}
	// Floyd–Warshall over the region lanes. The infinite diagonal
	// start means dist[i][i] converges to the shortest non-empty cycle
	// (all weights are ≥ 1, so shortest walks are simple paths/cycles).
	for k := 1; k <= regions; k++ {
		for j := 1; j <= regions; j++ {
			for i := 1; i <= regions; i++ {
				if d := dist[j][k] + dist[k][i]; d < dist[j][i] {
					dist[j][i] = d
				}
			}
		}
	}
	c.dist = dist
}

// Stats snapshots the window-loop counters, per-pair window histogram
// included.
func (c *Conductor) Stats() ConductorStats {
	s := c.stats
	if c.pairs != nil {
		s.Pairs = make([][]PairWindowStats, len(c.pairs))
		for i := range c.pairs {
			s.Pairs[i] = append([]PairWindowStats(nil), c.pairs[i]...)
		}
	}
	return s
}

// recordPair folds one bound phase-B window into the pair histogram.
// src and dst are lane indices; width 0 means the window stalled.
func (c *Conductor) recordPair(src, dst int, width Time) {
	if c.pairs == nil {
		c.pairs = make([][]PairWindowStats, len(c.lanes))
		for i := range c.pairs {
			c.pairs[i] = make([]PairWindowStats, len(c.lanes))
		}
	}
	p := &c.pairs[src][dst]
	p.Count++
	if width <= 0 {
		p.Stalled++
	} else {
		p.WidthSum += uint64(width)
	}
	p.Widths[WidthBucket(width)]++
}

// Now returns the maximum clock across lanes — the frontier the run
// has reached. Lane clocks may legitimately trail it.
func (c *Conductor) Now() Time {
	var t Time
	for _, e := range c.lanes {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Frontier returns the timestamp of the last event any lane executed.
// Now is the wrong end-of-run clock for artifacts: a lane's final
// RunUntil coasts to its granted deadline, which overshoots the last
// real event by a margin set by the lookahead bound matrix — so two
// runs differing only in window sizing would disagree on Now while
// executing the identical event sequence. Frontier is a pure function
// of the events themselves.
func (c *Conductor) Frontier() Time {
	var t Time
	for _, e := range c.lanes {
		if at := e.LastEventAt(); at > t {
			t = at
		}
	}
	return t
}

// laneJob is one phase-B work item: run lane until deadline (or drain
// it completely when drain is set).
type laneJob struct {
	lane     int
	deadline Time
	drain    bool
}

// LanePanic is what Run panics with when an event handler panicked on
// a region lane: the original panic value and stack, plus which lane
// (lane index: region + 1) and that lane's clock.
type LanePanic struct {
	Lane  int
	Now   Time
	Value any
	Stack []byte
}

func (p *LanePanic) Error() string {
	return fmt.Sprintf("sim: panic on lane %d at %v: %v\n%s", p.Lane, p.Now, p.Value, p.Stack)
}

// runLane executes one phase-B job. A panic on a worker goroutine could
// be recovered by nobody and would kill the process, so it is caught
// here and parked in the lane's failed slot for Run to re-raise.
func (c *Conductor) runLane(j laneJob, failed []*LanePanic) {
	e := c.lanes[j.lane]
	defer func() {
		if v := recover(); v != nil {
			failed[j.lane] = &LanePanic{Lane: j.lane, Now: e.Now(), Value: v, Stack: debug.Stack()}
		}
	}()
	if j.drain {
		e.Run()
	} else {
		e.RunUntil(j.deadline)
	}
}

// Run executes the window loop until every lane drains and the Merge
// hook has nothing left to move. workers bounds the goroutines that
// execute phase B; it is clamped to [1, Regions()] and has no effect on
// the schedule, only on wall-clock time.
//
// If a handler panics on a region lane, the window's other lanes still
// finish, and Run then panics on the calling goroutine with a
// *LanePanic — the lowest lane's when several panicked, so the report
// does not depend on worker timing.
func (c *Conductor) Run(workers int) {
	regions := len(c.lanes) - 1
	if workers < 1 {
		workers = 1
	}
	if workers > regions {
		workers = regions
	}

	jobs := make(chan laneJob)
	failed := make([]*LanePanic, len(c.lanes)) // written by the lane's worker, read after the barrier
	var window sync.WaitGroup                  // one phase B barrier per window
	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for j := range jobs {
				c.runLane(j, failed)
				window.Done()
			}
		}()
	}
	defer func() {
		close(jobs)
		pool.Wait()
	}()

	next := make([]Time, len(c.lanes))
	has := make([]bool, len(c.lanes))
	snapshot := func() (min Time, any bool) {
		min = maxTime
		for i, e := range c.lanes {
			next[i], has[i] = e.NextEventAt()
			if has[i] && next[i] < min {
				min, any = next[i], true
			}
		}
		return min, any
	}

	for {
		merged := 0
		if c.Merge != nil {
			merged = c.Merge()
		}
		c.stats.Merged += uint64(merged)

		t, any := snapshot()
		if !any {
			if merged == 0 {
				return
			}
			continue
		}
		c.stats.Windows++

		// Phase A: the global lane runs solo when it owns the earliest
		// event. Global events at t execute before region events at t —
		// sound because the global lane is a pure source: region lanes
		// never write global state, so no region event at t can change
		// what the global lane does at t.
		if has[0] && next[0] <= t {
			c.lanes[0].RunUntil(t)
			c.stats.GlobalWindows++
			if c.AfterGlobal != nil {
				c.AfterGlobal()
			}
			// Phase A schedules fresh work: same-lane deliveries land on
			// region queues directly, but an injected block's cross-lane
			// sends sit in the transport's buffers — drain them NOW, or a
			// region lane could run past an arrival this window's first
			// merge never saw. Then re-snapshot so the phase B deadlines
			// see everything phase A produced.
			if c.Merge != nil {
				c.stats.Merged += uint64(c.Merge())
			}
			snapshot()
		}

		// Phase B: each region lane may run strictly past its own next
		// event, up to the earliest external influence. Influences are
		// (a) the global lane's next event that can mutate lane state
		// directly — next[0] itself, or the owner's GlobalHorizon when
		// it certifies that nearer global events are internal — and
		// (b) any lane's next event plus the minimum causal-chain delay
		// from that lane to this one (the SetBounds closure): a chain
		// starting at lane j's event at u cannot produce an arrival
		// here before u+dist[j][i], and it only enters this lane's
		// queue at a future Merge anyway. The j == i term is the
		// round-trip constraint — this lane's own emissions coming back
		// through another lane — and applies only when a Merge hook
		// exists: without one there is no cross-lane transport, so a
		// solo lane may drain freely.
		global := next[0]
		if c.GlobalHorizon != nil {
			if h := c.GlobalHorizon(); h > global {
				global = h
			}
		}
		for i := 1; i < len(c.lanes); i++ {
			if !has[i] {
				continue
			}
			d := maxTime
			src := -1 // binding lane for the pair histogram
			if has[0] && global-1 < d {
				d = global - 1
				src = 0
			}
			for j := 1; j < len(c.lanes); j++ {
				if !has[j] || (j == i && c.Merge == nil) {
					continue
				}
				dd := c.dist[j][i]
				if dd >= infTime {
					continue
				}
				if t := next[j] + dd - 1; t < d {
					d = t
					src = j
				}
			}
			if d < next[i] {
				c.stats.Stalled++
				c.recordPair(src, i, 0)
				continue
			}
			c.stats.LaneWindows++
			if src >= 0 {
				c.recordPair(src, i, d-next[i]+1)
			}
			window.Add(1)
			jobs <- laneJob{lane: i, deadline: d, drain: d == maxTime}
		}
		window.Wait()
		for _, p := range failed {
			if p != nil {
				panic(p)
			}
		}
	}
}
