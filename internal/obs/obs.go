// Package obs is the reproduction's determinism-safe observability
// layer: engine tracing, run telemetry and service metrics, none of
// which consume simulation RNG or alter a seeded run's artifacts.
//
// Three surfaces share the package:
//
//   - Tracer: a ring-buffered sim.Probe recording per-event-kind
//     counts, dispatch wall-nanos and sim-vs-wall progress, exportable
//     as a Chrome trace or JSONL (`ethrepro -trace out.json`).
//   - Collector: a process-wide sink the simulation core reports
//     per-run engine statistics into; cmd/ethrepro and ethserve drain
//     it into each run directory's telemetry.json.
//   - Registry/Counter/Gauge/Histogram: a dependency-free Prometheus
//     text-format metrics kit backing ethserve's /metrics endpoint.
//
// Everything is disabled by default: an unconfigured process pays one
// atomic load per campaign and one nil check per simulated event. The
// determinism contract — tracing on vs off yields byte-identical
// artifacts and equal Merkle roots — is enforced by the golden
// harness in internal/experiments (see docs/OBSERVABILITY.md).
package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// RunSample is what the simulation core reports when one engine run
// (a campaign or chain-only run) finishes.
type RunSample struct {
	// Engine is the engine's always-on counter snapshot.
	Engine sim.EngineStats
	// Messages/Bytes/Dropped are transport totals (zero for
	// chain-only runs, which have no overlay).
	Messages uint64
	Bytes    uint64
	Dropped  uint64
	// Nodes is the overlay's node count (zero for chain-only runs) —
	// the denominator for the bytes-per-node memory figure.
	Nodes int
	// Shard describes the conductor's window loop when the run executed
	// sharded (nil for single-engine runs). Engine above is then the
	// cross-lane aggregate; Shard keeps the per-lane breakdown.
	Shard *ShardSample
}

// ShardSample is one sharded run's conductor activity: window-loop
// counters plus per-lane engine snapshots. Every field is a pure
// function of the simulation — worker count appears only as the
// configured knob, never as a source of variation.
type ShardSample struct {
	// Workers is the configured phase-B worker count.
	Workers int
	// Windows/GlobalWindows/LaneWindows/Stalled/Merged mirror
	// sim.ConductorStats.
	Windows       uint64
	GlobalWindows uint64
	LaneWindows   uint64
	Stalled       uint64
	Merged        uint64
	// Lanes are the per-lane engine snapshots, global lane first, then
	// region lanes in region order.
	Lanes []sim.EngineStats
	// Pairs is the conductor's per-lane-pair window-width histogram
	// (sim.ConductorStats.Pairs): Pairs[src][dst] aggregates the
	// phase-B windows in which lane src was the binding lookahead
	// constraint on lane dst. Nil when the conductor recorded none.
	Pairs [][]sim.PairWindowStats
}

// PairWindowTelemetry is one (bounding lane → bounded lane) pair's
// phase-B window aggregate across the folded sharded runs. Lane
// indices follow the conductor layout: 0 is the global lane, then
// region lanes in region order.
type PairWindowTelemetry struct {
	Src      int    `json:"src"`
	Dst      int    `json:"dst"`
	Count    uint64 `json:"count"`
	Stalled  uint64 `json:"stalled,omitempty"`
	WidthSum uint64 `json:"width_ms_sum,omitempty"`
	// Widths is the log2 window-width histogram: bucket 0 counts
	// stalls, bucket k widths in [2^(k-1), 2^k) ms.
	Widths []uint64 `json:"width_hist,omitempty"`
}

// MeanWidth is the average runnable window width in milliseconds over
// the pair's non-stalled windows.
func (p PairWindowTelemetry) MeanWidth() float64 {
	run := p.Count - p.Stalled
	if run == 0 {
		return 0
	}
	return float64(p.WidthSum) / float64(run)
}

// RunTelemetry aggregates every engine run reporting under one seed —
// the runner derives a unique seed per (spec, repeat), so this is the
// per-run record telemetry.json is built from. Specs that execute
// several campaigns per run (healthy-vs-faulted comparisons, sweeps)
// fold them all into one record.
type RunTelemetry struct {
	Seed uint64
	// Engines counts the engine runs folded in.
	Engines int
	// Events / Scheduled sum the engines' dispatch and enqueue
	// counters; FarScheduled the enqueues that landed beyond the
	// engine's wheel horizon.
	Events       uint64
	Scheduled    uint64
	FarScheduled uint64
	// PeakQueue is the largest queue-depth high-water mark across the
	// engines; Slots the largest event-storage capacity.
	PeakQueue int
	Slots     int
	// SimMS sums the engines' final virtual clocks.
	SimMS int64
	// BuildNanos sums wall time from campaign construction to engine
	// start; RunNanos from engine start to completion.
	BuildNanos int64
	RunNanos   int64
	// Messages/Bytes/Dropped sum the transport counters.
	Messages uint64
	Bytes    uint64
	Dropped  uint64
	// PeakHeapBytes is the largest live-heap reading taken as each
	// engine finished (the campaign's state is fully resident then);
	// Nodes the largest overlay size among them. Process-wide heap, so
	// concurrent campaigns inflate each other's reading — documented
	// in docs/PERFORMANCE.md.
	PeakHeapBytes uint64
	Nodes         int
	// Sharded-run aggregates, all zero when every folded run was
	// single-engine: conductor counters summed across runs, the largest
	// configured worker count, and per-lane engine stats merged by lane
	// position (global lane first).
	ShardWorkers int
	ShardWindows uint64
	ShardStalled uint64
	ShardMerged  uint64
	Lanes        []LaneTelemetry
	// PairWindows is the conductor's per-lane-pair window-width
	// histogram summed across runs, sorted by (src, dst), zero-count
	// pairs omitted.
	PairWindows []PairWindowTelemetry
	// Kinds is the per-event-kind dispatch profile, merged across
	// engines by kind name, sorted by descending wall time. Empty
	// unless tracing was enabled.
	Kinds []KindStats
	// Tracers holds each engine's full tracer (ring spans and progress
	// samples) when tracing was enabled, in completion order.
	Tracers []*Tracer
}

// LaneTelemetry is one conductor lane's contribution across the folded
// sharded runs: dispatch/enqueue sums, summed final clocks, and the
// largest queue-depth high-water mark.
type LaneTelemetry struct {
	Events    uint64 `json:"events"`
	Scheduled uint64 `json:"scheduled"`
	SimMS     int64  `json:"sim_ms"`
	PeakQueue int    `json:"peak_queue"`
}

// EventsPerSec is the run's dispatch throughput over its engine-run
// wall time.
func (r *RunTelemetry) EventsPerSec() float64 {
	if r.RunNanos <= 0 {
		return 0
	}
	return float64(r.Events) / (float64(r.RunNanos) / 1e9)
}

// BytesPerNode is the peak-heap cost per overlay node, the telemetry
// counterpart of the committed bytes-per-node ceiling test.
func (r *RunTelemetry) BytesPerNode() float64 {
	if r.Nodes <= 0 {
		return 0
	}
	return float64(r.PeakHeapBytes) / float64(r.Nodes)
}

// Collector accumulates RunTelemetry per seed. The zero value is
// disabled; EnableTelemetry (cheap, counters only) or EnableTracing
// (adds a ring-buffered Tracer probe per engine) switch it on.
// Collectors are safe for concurrent use — campaign workers report
// from many goroutines.
type Collector struct {
	telemetry atomic.Bool
	tracing   atomic.Bool

	mu      sync.Mutex
	spanCap int
	runs    map[uint64]*RunTelemetry
}

// Default is the process collector the simulation core reports into.
var Default = &Collector{}

// EnableTelemetry turns on per-run statistics collection.
func (c *Collector) EnableTelemetry() {
	c.telemetry.Store(true)
}

// EnableTracing turns on telemetry plus engine tracing: every engine
// started while tracing is enabled gets a Tracer probe holding up to
// spanCap ring spans (<= 0 means DefaultSpanCap).
func (c *Collector) EnableTracing(spanCap int) {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	c.mu.Lock()
	c.spanCap = spanCap
	c.mu.Unlock()
	c.telemetry.Store(true)
	c.tracing.Store(true)
}

// Disable turns collection off and drops any unclaimed telemetry
// (tests use it to restore the pristine default).
func (c *Collector) Disable() {
	c.telemetry.Store(false)
	c.tracing.Store(false)
	c.mu.Lock()
	c.runs = nil
	c.mu.Unlock()
}

// Enabled reports whether any collection is active.
func (c *Collector) Enabled() bool { return c.telemetry.Load() }

// RunScope tracks one engine run from construction to completion. A
// nil scope (collection disabled) is valid and inert, so callers
// never branch.
type RunScope struct {
	c        *Collector
	seed     uint64
	created  time.Time
	runStart time.Time
	tracer   *Tracer
	done     bool
}

// StartRun opens a scope for one engine run under the given seed,
// attaching a tracer probe to the engine when tracing is enabled.
// Returns nil when collection is disabled.
func (c *Collector) StartRun(seed uint64, engine *sim.Engine) *RunScope {
	if c == nil || !c.telemetry.Load() {
		return nil
	}
	s := &RunScope{c: c, seed: seed, created: time.Now()}
	s.runStart = s.created
	if c.tracing.Load() && engine != nil {
		c.mu.Lock()
		cap := c.spanCap
		c.mu.Unlock()
		s.tracer = NewTracer(cap)
		engine.SetProbe(s.tracer)
	}
	return s
}

// RunStarted marks the boundary between campaign construction and
// engine execution (the build/run wall-time split).
func (s *RunScope) RunStarted() {
	if s == nil {
		return
	}
	s.runStart = time.Now()
}

// Finish folds the run into the collector. Calling Finish twice is a
// no-op; a scope that is never finished simply reports nothing.
func (s *RunScope) Finish(sample RunSample) {
	if s == nil || s.done {
		return
	}
	s.done = true
	now := time.Now()
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.telemetry.Load() {
		return
	}
	if c.runs == nil {
		c.runs = map[uint64]*RunTelemetry{}
	}
	r := c.runs[s.seed]
	if r == nil {
		r = &RunTelemetry{Seed: s.seed}
		c.runs[s.seed] = r
	}
	r.Engines++
	r.Events += sample.Engine.Processed
	r.Scheduled += sample.Engine.Scheduled
	r.FarScheduled += sample.Engine.FarScheduled
	r.PeakQueue = max(r.PeakQueue, sample.Engine.MaxPending)
	r.Slots = max(r.Slots, sample.Engine.Slots)
	r.SimMS += int64(sample.Engine.Now)
	r.BuildNanos += s.runStart.Sub(s.created).Nanoseconds()
	r.RunNanos += now.Sub(s.runStart).Nanoseconds()
	r.Messages += sample.Messages
	r.Bytes += sample.Bytes
	r.Dropped += sample.Dropped
	// Heap sampling happens only on the telemetry path (scope is nil
	// when collection is off), so untraced runs never pay for
	// ReadMemStats.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.PeakHeapBytes = max(r.PeakHeapBytes, m.HeapAlloc)
	r.Nodes = max(r.Nodes, sample.Nodes)
	if sh := sample.Shard; sh != nil {
		r.ShardWorkers = max(r.ShardWorkers, sh.Workers)
		r.ShardWindows += sh.Windows
		r.ShardStalled += sh.Stalled
		r.ShardMerged += sh.Merged
		for i, ls := range sh.Lanes {
			if i >= len(r.Lanes) {
				r.Lanes = append(r.Lanes, LaneTelemetry{})
			}
			r.Lanes[i].Events += ls.Processed
			r.Lanes[i].Scheduled += ls.Scheduled
			r.Lanes[i].SimMS += int64(ls.Now)
			r.Lanes[i].PeakQueue = max(r.Lanes[i].PeakQueue, ls.MaxPending)
		}
		for src := range sh.Pairs {
			for dst := range sh.Pairs[src] {
				p := sh.Pairs[src][dst]
				if p.Count == 0 {
					continue
				}
				r.foldPair(src, dst, p)
			}
		}
	}
	if s.tracer != nil {
		r.Kinds = mergeKinds(r.Kinds, s.tracer.Kinds())
		r.Tracers = append(r.Tracers, s.tracer)
	}
}

// foldPair sums one conductor pair-window record into the run's
// PairWindows list, keeping the list sorted by (src, dst). The pair
// count is tiny (at most lanes²), so linear insertion is fine.
func (r *RunTelemetry) foldPair(src, dst int, p sim.PairWindowStats) {
	at := len(r.PairWindows)
	for i := range r.PairWindows {
		e := &r.PairWindows[i]
		if e.Src == src && e.Dst == dst {
			e.Count += p.Count
			e.Stalled += p.Stalled
			e.WidthSum += p.WidthSum
			for k, n := range p.Widths {
				e.Widths[k] += n
			}
			return
		}
		if e.Src > src || (e.Src == src && e.Dst > dst) {
			at = i
			break
		}
	}
	entry := PairWindowTelemetry{
		Src: src, Dst: dst,
		Count: p.Count, Stalled: p.Stalled, WidthSum: p.WidthSum,
		Widths: make([]uint64, sim.WindowWidthBuckets),
	}
	copy(entry.Widths, p.Widths[:])
	r.PairWindows = append(r.PairWindows, PairWindowTelemetry{})
	copy(r.PairWindows[at+1:], r.PairWindows[at:])
	r.PairWindows[at] = entry
}

// Take removes and returns the telemetry for the given seeds — the
// campaign front ends drain exactly their own runs, so concurrent
// campaigns sharing the process collector do not observe each other.
func (c *Collector) Take(seeds []uint64) map[uint64]RunTelemetry {
	out := map[uint64]RunTelemetry{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, seed := range seeds {
		if r, ok := c.runs[seed]; ok {
			out[seed] = *r
			delete(c.runs, seed)
		}
	}
	return out
}

// mergeKinds folds b into a by kind name, keeping descending-wall
// order.
func mergeKinds(a, b []KindStats) []KindStats {
	byName := make(map[string]int, len(a))
	for i, k := range a {
		byName[k.Name] = i
	}
	for _, k := range b {
		if i, ok := byName[k.Name]; ok {
			a[i].Count += k.Count
			a[i].WallNanos += k.WallNanos
			a[i].MaxWallNanos = max(a[i].MaxWallNanos, k.MaxWallNanos)
		} else {
			byName[k.Name] = len(a)
			a = append(a, k)
		}
	}
	sort.SliceStable(a, func(i, j int) bool { return a[i].WallNanos > a[j].WallNanos })
	return a
}

// ProcessStats is a point-in-time snapshot of the Go runtime — the
// GC/allocation section of telemetry.json. Process-wide by nature:
// when several campaigns share one server process, they share these
// numbers too.
type ProcessStats struct {
	GoVersion      string  `json:"go_version"`
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumGoroutine   int     `json:"num_goroutine"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	TotalAllocMB   float64 `json:"total_alloc_mb"`
	SysBytes       uint64  `json:"sys_bytes"`
	NumGC          uint32  `json:"num_gc"`
	GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
}

// ProcessSnapshot reads the runtime counters.
func ProcessSnapshot() ProcessStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return ProcessStats{
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumGoroutine:   runtime.NumGoroutine(),
		HeapAllocBytes: m.HeapAlloc,
		TotalAllocMB:   float64(m.TotalAlloc) / (1 << 20),
		SysBytes:       m.Sys,
		NumGC:          m.NumGC,
		GCPauseTotalMS: float64(m.PauseTotalNs) / 1e6,
	}
}
