package sim

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// crossEntry is a buffered cross-lane message in the test harness:
// a ping emitted by srcLane during phase B, destined for dstLane.
type crossEntry struct {
	at      Time
	srcLane int
	emitIdx int
	dstLane int
	hops    uint64
}

// pingPong bounces events between region lanes through the conductor's
// merge: every handled event re-emits to the next lane with a 1-tick
// delay until the hop budget is spent. It models the p2p transport's
// contract — phase-B cross sends only append to the per-source buffer.
type pingPong struct {
	c       *Conductor
	buf     [][]crossEntry // per source lane
	emitted []int
	totals  []int // per source lane: lanes run concurrently in phase B
}

func (p *pingPong) HandleEvent(now Time, lane, hops uint64) {
	p.totals[int(lane)-1]++
	if hops == 0 {
		return
	}
	src := int(lane)
	dst := src%len(p.buf) + 1 // next region lane, 1-based
	p.buf[src-1] = append(p.buf[src-1], crossEntry{
		at: now + 1, srcLane: src, emitIdx: p.emitted[src-1],
		dstLane: dst, hops: hops - 1,
	})
	p.emitted[src-1]++
}

// merge drains the buffers in (at, srcLane, emitIdx) order — the same
// discipline the p2p merge uses — into the destination lanes.
func (p *pingPong) merge() int {
	var all []crossEntry
	for i := range p.buf {
		all = append(all, p.buf[i]...)
		p.buf[i] = p.buf[i][:0]
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.srcLane != b.srcLane {
			return a.srcLane < b.srcLane
		}
		return a.emitIdx < b.emitIdx
	})
	for _, e := range all {
		p.c.Lane(e.dstLane-1).ScheduleCallAt(e.at, p, uint64(e.dstLane), e.hops)
	}
	return len(all)
}

// runPingPong executes the ping-pong model over `regions` lanes with
// the given worker count and returns total events plus per-lane stats.
func runPingPong(regions, workers int) (total int, stats []EngineStats, cstats ConductorStats) {
	c := NewConductor(regions)
	p := &pingPong{c: c, buf: make([][]crossEntry, regions), emitted: make([]int, regions), totals: make([]int, regions)}
	p.merge() // harmless empty drain, proves the hook tolerates idle calls
	c.Merge = p.merge
	// Seed every region lane with a bouncing chain plus some local-only
	// events, at staggered times so lanes genuinely interleave.
	for r := 0; r < regions; r++ {
		lane := c.Lane(r)
		lane.ScheduleCallAt(Time(r), p, uint64(r+1), 40)
		for k := 0; k < 5; k++ {
			lane.ScheduleCallAt(Time(10*k+r), p, uint64(r+1), 0)
		}
	}
	// The global lane injects into region 1 mid-run, exercising phase A
	// ordering ahead of region events at the same timestamp.
	c.Global().ScheduleAt(7, func(now Time) {
		c.Lane(0).ScheduleCallAt(now+1, p, 1, 3)
	})
	c.Run(workers)
	for i := 0; i <= regions; i++ {
		stats = append(stats, c.lanes[i].Stats())
	}
	for _, n := range p.totals {
		total += n
	}
	return total, stats, c.Stats()
}

// TestConductorMatchesAcrossWorkerCounts is the core determinism
// contract: the schedule — event counts, per-lane clocks, sequence
// counters, window counts — is identical no matter how many worker
// goroutines execute phase B. Run with -race this also exercises the
// cross-lane merge under real concurrency.
func TestConductorMatchesAcrossWorkerCounts(t *testing.T) {
	refTotal, refStats, refC := runPingPong(6, 1)
	if refTotal == 0 {
		t.Fatal("ping-pong model ran no events")
	}
	if refC.Merged == 0 {
		t.Fatal("no cross-lane messages merged; the test is vacuous")
	}
	// The speed-up bound's terms are exact counts: every region event
	// runs in some window's phase B, so Work is the region-event total;
	// Span and GlobalEvents are pinned for this schedule.
	if refC.Work != uint64(refTotal) || refC.Span != 258 || refC.GlobalEvents != 1 {
		t.Fatalf("work/span/global = %d/%d/%d, want %d/258/1", refC.Work, refC.Span, refC.GlobalEvents, refTotal)
	}
	for _, workers := range []int{2, 4, 6, 16} {
		total, stats, cs := runPingPong(6, workers)
		if total != refTotal {
			t.Fatalf("workers=%d: %d events, want %d", workers, total, refTotal)
		}
		if !reflect.DeepEqual(cs, refC) {
			t.Fatalf("workers=%d: conductor stats %+v, want %+v", workers, cs, refC)
		}
		for i := range stats {
			if stats[i] != refStats[i] {
				t.Fatalf("workers=%d lane %d: stats %+v, want %+v", workers, i, stats[i], refStats[i])
			}
		}
	}
}

// TestConductorGlobalRunsFirstAtTie pins the phase ordering: a global
// event and a region event at the same timestamp execute global-first,
// because the global lane is a pure source feeding the regions.
func TestConductorGlobalRunsFirstAtTie(t *testing.T) {
	c := NewConductor(2)
	var order []string
	c.Global().ScheduleAt(5, func(Time) { order = append(order, "global") })
	c.Lane(0).ScheduleAt(5, func(Time) { order = append(order, "region") })
	c.Run(2)
	if len(order) != 2 || order[0] != "global" || order[1] != "region" {
		t.Fatalf("execution order %v, want [global region]", order)
	}
}

// TestConductorStallCounter pins the lookahead-stall telemetry: a
// region lane whose only event lies at or past every deadline must be
// counted as stalled, then run once the constraint clears.
func TestConductorStallCounter(t *testing.T) {
	c := NewConductor(2)
	ran := 0
	// Lane 1's event at t=3 forces lane 0's first window deadline to 3,
	// stalling lane 0's own event at t=9 until lane 1 has advanced.
	c.Lane(0).ScheduleAt(9, func(Time) { ran++ })
	c.Lane(1).ScheduleAt(3, func(Time) { ran++ })
	c.Run(2)
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
	if s := c.Stats(); s.Stalled == 0 {
		t.Fatalf("expected lookahead stalls, got stats %+v", s)
	}
}

// TestConductorDrainsSingleLane pins the drain fast path: when only
// one region lane holds events and the global lane is empty, the lane
// runs to completion without per-millisecond barriers.
func TestConductorDrainsSingleLane(t *testing.T) {
	c := NewConductor(3)
	left := 1000
	var h Handler
	h = handlerFunc(func(now Time, a, b uint64) {
		if left--; left > 0 {
			c.Lane(2).ScheduleCall(1, h, 0, 0)
		}
	})
	c.Lane(2).ScheduleCall(0, h, 0, 0)
	c.Run(3)
	if left != 0 {
		t.Fatalf("chain left %d events unrun", left)
	}
	if s := c.Stats(); s.Windows != 1 {
		t.Fatalf("expected a single drain window, got stats %+v", s)
	}
}

// handlerFunc adapts a function to the Handler interface for tests.
type handlerFunc func(now Time, a, b uint64)

func (f handlerFunc) HandleEvent(now Time, a, b uint64) { f(now, a, b) }

// TestSetBoundsClosure pins the shortest-path closure SetBounds
// stores: a direct pair bound larger than a multi-hop path must be
// tightened to the path, and the diagonal must become the shortest
// round trip through another lane.
func TestSetBoundsClosure(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		c := NewConductor(3)
		c.SetBounds([][]Time{
			{0, 10, 50},
			{10, 0, 5},
			{50, 5, 0},
		})
		// Direct 0→2 bound of 50 exceeds the two-hop path 0→1→2 = 15.
		if got := c.dist[1][3]; got != 15 {
			t.Fatalf("closure 0→2 = %v, want 15 (via lane 1)", got)
		}
		if got := c.dist[3][1]; got != 15 {
			t.Fatalf("closure 2→0 = %v, want 15 (via lane 1)", got)
		}
		// Diagonals: shortest round trip through another lane.
		if got := c.dist[1][1]; got != 20 {
			t.Fatalf("round trip lane 0 = %v, want 20 (0→1→0)", got)
		}
		if got := c.dist[2][2]; got != 10 {
			t.Fatalf("round trip lane 1 = %v, want 10 (1→2→1)", got)
		}
		if got := c.dist[3][3]; got != 10 {
			t.Fatalf("round trip lane 2 = %v, want 10 (2→1→2)", got)
		}
	})
	// The concrete case from the default geo model (floors = 0.25 ×
	// base, truncated): WE→OC is bounded at 35 ms directly but a chain
	// relayed through NA is bounded at 11 + 20 = 31 ms. Using the raw
	// matrix instead of its closure would overshoot the deadline.
	t.Run("geo WE-NA-OC triangle", func(t *testing.T) {
		c := NewConductor(3) // lanes: 0=NA, 1=WE, 2=OC
		c.SetBounds([][]Time{
			{0, 11, 20},
			{11, 0, 35},
			{20, 35, 0},
		})
		if got := c.dist[2][3]; got != 31 {
			t.Fatalf("closure WE→OC = %v, want 31 (via NA)", got)
		}
		if got := c.dist[1][1]; got != 22 {
			t.Fatalf("round trip NA = %v, want 22 (NA→WE→NA)", got)
		}
	})
	// Entries below the 1 ms transport floor clamp up to 1.
	t.Run("clamp", func(t *testing.T) {
		c := NewConductor(2)
		c.SetBounds([][]Time{{0, 0}, {-5, 0}})
		if got := c.dist[1][2]; got != 1 {
			t.Fatalf("clamped bound = %v, want 1", got)
		}
	})
	t.Run("bad shape panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("SetBounds accepted a wrong-shape matrix")
			}
		}()
		NewConductor(3).SetBounds([][]Time{{0, 1}, {1, 0}})
	})
}

// TestConductorWiderBoundsWidenWindows is the tentpole's behavioral
// contract: raising the per-pair bounds must let lanes run further per
// window (fewer, wider windows) while executing exactly the same
// events.
func TestConductorWiderBoundsWidenWindows(t *testing.T) {
	run := func(bound Time) (ran int, cs ConductorStats) {
		c := NewConductor(2)
		c.SetBounds([][]Time{{0, bound}, {bound, 0}})
		var n [2]int // per-lane: phase B runs the lanes concurrently
		for k := 0; k < 10; k++ {
			c.Lane(0).ScheduleAt(Time(10*k), func(Time) { n[0]++ })
			c.Lane(1).ScheduleAt(Time(10*k), func(Time) { n[1]++ })
		}
		c.Run(2)
		return n[0] + n[1], c.Stats()
	}
	narrowN, narrow := run(1)
	wideN, wide := run(50)
	if narrowN != 20 || wideN != 20 {
		t.Fatalf("event totals differ across bounds: narrow=%d wide=%d, want 20", narrowN, wideN)
	}
	if wide.Windows >= narrow.Windows {
		t.Fatalf("wider bounds did not reduce windows: narrow=%d wide=%d", narrow.Windows, wide.Windows)
	}
	sumWidth := func(cs ConductorStats) (total uint64) {
		for _, row := range cs.Pairs {
			for _, p := range row {
				total += p.WidthSum
				// Histogram consistency: bucket counts cover every window.
				var b uint64
				for _, w := range p.Widths {
					b += w
				}
				if b != p.Count {
					t.Fatalf("pair histogram sums to %d, Count %d", b, p.Count)
				}
			}
		}
		return total
	}
	if nw, ww := sumWidth(narrow), sumWidth(wide); ww <= nw {
		t.Fatalf("wider bounds did not widen windows: narrow width sum %d, wide %d", nw, ww)
	}
}

// TestConductorPairHistogramRecordsStalls pins who gets blamed for a
// stall: the binding source lane's row in the pair matrix.
func TestConductorPairHistogramRecordsStalls(t *testing.T) {
	c := NewConductor(2)
	ran := 0
	// Lane 1's event at t=3 bounds lane 0's first deadline to 3,
	// stalling lane 0's own event at t=9 (uniform 1 ms bounds).
	c.Lane(0).ScheduleAt(9, func(Time) { ran++ })
	c.Lane(1).ScheduleAt(3, func(Time) { ran++ })
	c.Run(1)
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
	cs := c.Stats()
	if cs.Pairs == nil {
		t.Fatal("no pair histogram recorded")
	}
	// Lane indices: region lane r is conductor lane r+1.
	p := cs.Pairs[2][1]
	if p.Stalled == 0 || p.Widths[0] == 0 {
		t.Fatalf("lane 1 → lane 0 stall not recorded: %+v", p)
	}
	if cs.Stalled == 0 {
		t.Fatalf("conductor stall counter empty: %+v", cs)
	}
}

// TestWidthBucket pins the histogram bucketing: 0 = stall, k covers
// [2^(k-1), 2^k), the top bucket absorbs the rest.
func TestWidthBucket(t *testing.T) {
	cases := []struct {
		width Time
		want  int
	}{
		{0, 0}, {-3, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10},
		{1 << 20, WindowWidthBuckets - 1}, {maxTime, WindowWidthBuckets - 1},
	}
	for _, tc := range cases {
		if got := WidthBucket(tc.width); got != tc.want {
			t.Fatalf("WidthBucket(%d) = %d, want %d", tc.width, got, tc.want)
		}
	}
}

// TestConductorGlobalHorizonUnpinsLanes pins the GlobalHorizon
// contract: internal global events (bookkeeping that touches no
// region-lane state) stop binding phase-B deadlines when the owner
// certifies the next lane-touching time, while the conservative
// default still stalls lanes on every pending global event.
func TestConductorGlobalHorizonUnpinsLanes(t *testing.T) {
	run := func(withHorizon bool) (ran int, cs ConductorStats) {
		c := NewConductor(2)
		// Internal global bookkeeping every 10 ms, then a final global
		// event at 200 (the only one the owner would call touching).
		for k := 1; k <= 9; k++ {
			c.Global().ScheduleAt(Time(10*k), func(Time) { ran++ })
		}
		c.Global().ScheduleAt(200, func(Time) { ran++ })
		// Region lane 0 holds events beyond several global events; the
		// default bound stalls them until the global lane catches up.
		c.Lane(0).ScheduleAt(50, func(Time) { ran++ })
		c.Lane(0).ScheduleAt(150, func(Time) { ran++ })
		if withHorizon {
			c.GlobalHorizon = func() Time { return 200 }
		}
		c.Run(2)
		return ran, c.Stats()
	}
	defN, def := run(false)
	horN, hor := run(true)
	if defN != 12 || horN != 12 {
		t.Fatalf("event totals differ: default=%d horizon=%d, want 12", defN, horN)
	}
	// Lane indices: global is 0, region lane 0 is conductor lane 1.
	if def.Pairs == nil || def.Pairs[0][1].Stalled == 0 {
		t.Fatalf("default bound recorded no global-bound stalls: %+v", def)
	}
	if hor.Pairs != nil && hor.Pairs[0][1].Stalled != 0 {
		t.Fatalf("horizon run still stalled on the global lane: %+v", hor.Pairs[0][1])
	}
	if hor.Stalled >= def.Stalled {
		t.Fatalf("horizon did not reduce stalls: default=%d horizon=%d", def.Stalled, hor.Stalled)
	}
}

// TestConductorGlobalHorizonBelowNextIsConservative pins the clamp: a
// horizon at or below the global lane's next event restores the
// default next-global bound exactly.
func TestConductorGlobalHorizonBelowNextIsConservative(t *testing.T) {
	run := func(withHorizon bool) ConductorStats {
		c := NewConductor(2)
		for k := 1; k <= 5; k++ {
			c.Global().ScheduleAt(Time(20*k), func(Time) {})
		}
		c.Lane(0).ScheduleAt(90, func(Time) {})
		c.Lane(1).ScheduleAt(70, func(Time) {})
		if withHorizon {
			c.GlobalHorizon = func() Time { return 0 }
		}
		c.Run(2)
		return c.Stats()
	}
	def, clamped := run(false), run(true)
	if def.Windows != clamped.Windows || def.Stalled != clamped.Stalled ||
		def.LaneWindows != clamped.LaneWindows {
		t.Fatalf("horizon ≤ next(global) changed the schedule: default=%+v clamped=%+v", def, clamped)
	}
}

// TestConductorFrontierIgnoresDeadlineOvershoot pins the end-of-run
// frontier contract: after Run, Frontier is the last executed event's
// timestamp regardless of how far past it the final granted deadlines
// let lane clocks coast — so it is invariant across bound matrices
// that Now is not.
func TestConductorFrontierIgnoresDeadlineOvershoot(t *testing.T) {
	run := func(bound Time) (now, frontier Time) {
		c := NewConductor(2)
		c.Merge = func() int { return 0 } // activates the round-trip deadline term
		c.SetBounds([][]Time{
			{0, bound},
			{bound, 0},
		})
		c.Lane(0).ScheduleAt(50, func(Time) {})
		c.Lane(1).ScheduleAt(100, func(Time) {})
		c.Run(2)
		return c.Now(), c.Frontier()
	}
	nowTight, frontTight := run(1)
	nowWide, frontWide := run(40)
	if frontTight != 100 || frontWide != 100 {
		t.Fatalf("frontier moved with the bound matrix: tight=%v wide=%v, want 100", frontTight, frontWide)
	}
	if nowWide <= nowTight {
		t.Fatalf("expected the wide bound to overshoot the clock: tight=%v wide=%v", nowTight, nowWide)
	}
}

// TestConductorLanePanicReachesCaller: a handler that panics on a
// phase-B worker goroutine must not kill the process. The window's
// other lanes finish, and Run re-panics on the calling goroutine with
// the lane, its clock and the original stack — the lowest lane's when
// several panic, whatever the worker timing.
func TestConductorLanePanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := NewConductor(3)
		ran := 0
		c.Lane(0).Schedule(5, func(Time) { ran++ })
		c.Lane(1).Schedule(5, func(Time) { panic("boom-2") })
		c.Lane(2).Schedule(5, func(Time) { panic("boom-3") })
		c.Lane(0).Schedule(50, func(Time) { t.Error("ran a window after the panic") })

		var got any
		func() {
			defer func() { got = recover() }()
			c.Run(workers)
		}()
		p, ok := got.(*LanePanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %v, want *LanePanic", workers, got)
		}
		if p.Lane != 2 || p.Now != 5 || p.Value != "boom-2" {
			t.Fatalf("workers=%d: got lane %d at %v value %v, want lane 2 at 5ms boom-2", workers, p.Lane, p.Now, p.Value)
		}
		if !strings.Contains(string(p.Stack), "TestConductorLanePanicReachesCaller") {
			t.Fatalf("stack does not reach the panicking handler:\n%s", p.Stack)
		}
		if !strings.Contains(p.Error(), "lane 2") {
			t.Fatalf("message does not name the lane: %s", p.Error())
		}
		if ran != 1 {
			t.Fatalf("workers=%d: the healthy lane ran %d events in the panicking window, want 1", workers, ran)
		}
	}
}

// TestConductorTimes checks the wall-clock split's bookkeeping on a
// run that merges, runs the global lane and runs several lanes per
// window: every phase reads some time, and the lane jobs' summed time
// fits in phase B times the workers (each job runs inside phase B on
// one worker).
func TestConductorTimes(t *testing.T) {
	const regions, workers = 4, 2
	c := NewConductor(regions)
	p := &pingPong{c: c, buf: make([][]crossEntry, regions), emitted: make([]int, regions), totals: make([]int, regions)}
	c.Merge = p.merge
	for r := 0; r < regions; r++ {
		c.Lane(r).ScheduleCallAt(Time(r), p, uint64(r+1), 400)
	}
	c.Global().ScheduleAt(7, func(now Time) {})
	if got := c.Times(); got != (PhaseTimes{}) {
		t.Fatalf("times before any run = %+v, want zero", got)
	}
	c.Run(workers)
	tm := c.Times()
	if tm.Merge <= 0 || tm.PhaseA <= 0 || tm.PhaseB <= 0 || tm.LaneBusy <= 0 {
		t.Fatalf("a phase read no time: %+v", tm)
	}
	if tm.LaneBusy > workers*tm.PhaseB {
		t.Fatalf("lanes busy %v in %v of phase B on %d workers", tm.LaneBusy, tm.PhaseB, workers)
	}
}
