package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// busyHandler burns a few events across two opcodes.
type busyHandler struct{ hits int }

func (h *busyHandler) HandleEvent(now sim.Time, a, b uint64) { h.hits++ }

func (h *busyHandler) EventName(op uint64) string {
	if op == 0 {
		return "busy.ping"
	}
	return "busy.pong"
}

func runTracedEngine(t *testing.T, events int, spanCap int) (*Tracer, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine()
	tr := NewTracer(spanCap)
	e.SetProbe(tr)
	h := &busyHandler{}
	for i := 0; i < events; i++ {
		e.ScheduleCall(sim.Time(i), h, uint64(i%2), 0)
	}
	e.Run()
	return tr, e
}

func TestTracerKindStatsUseEventNamer(t *testing.T) {
	tr, _ := runTracedEngine(t, 10, 0)
	if tr.Events() != 10 {
		t.Fatalf("Events = %d, want 10", tr.Events())
	}
	kinds := tr.Kinds()
	names := map[string]uint64{}
	for _, k := range kinds {
		names[k.Name] = k.Count
	}
	if names["busy.ping"] != 5 || names["busy.pong"] != 5 {
		t.Fatalf("kind counts = %v, want busy.ping:5 busy.pong:5", names)
	}
	for _, k := range kinds {
		if k.Count > 0 && k.WallNanos < 0 {
			t.Fatalf("negative wall for %s", k.Name)
		}
	}
}

func TestTracerRingDropsOldest(t *testing.T) {
	tr, _ := runTracedEngine(t, 50, 8)
	if tr.Dropped() != 42 {
		t.Fatalf("Dropped = %d, want 42", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(spans))
	}
	// Oldest-first: sim times of retained spans are the last 8
	// scheduled (42ms..49ms).
	for i, sp := range spans {
		want := sim.Time(42+i) * sim.Millisecond
		if sp.Sim != want {
			t.Fatalf("span %d sim = %v, want %v", i, sp.Sim, want)
		}
	}
	// Kind stats still cover every event.
	var total uint64
	for _, k := range tr.Kinds() {
		total += k.Count
	}
	if total != 50 {
		t.Fatalf("kind counts sum to %d, want 50", total)
	}
}

func TestCollectorDisabledIsInert(t *testing.T) {
	c := &Collector{}
	if s := c.StartRun(1, sim.NewEngine()); s != nil {
		t.Fatal("disabled collector should return nil scope")
	}
	var s *RunScope
	s.RunStarted()
	s.Finish(RunSample{}) // must not panic
	if got := c.Take([]uint64{1}); len(got) != 0 {
		t.Fatalf("Take on disabled collector = %v", got)
	}
}

func TestCollectorAggregatesPerSeed(t *testing.T) {
	c := &Collector{}
	c.EnableTelemetry()
	defer c.Disable()
	for i := 0; i < 2; i++ {
		e := sim.NewEngine()
		s := c.StartRun(77, e)
		if s == nil {
			t.Fatal("enabled collector returned nil scope")
		}
		s.RunStarted()
		e.Schedule(1, func(sim.Time) {})
		e.Schedule(2, func(sim.Time) {})
		e.Run()
		s.Finish(RunSample{Engine: e.Stats(), Messages: 3, Bytes: 100})
	}
	got := c.Take([]uint64{77, 99})
	r, ok := got[77]
	if !ok {
		t.Fatal("seed 77 missing from Take")
	}
	if r.Engines != 2 || r.Events != 4 || r.Messages != 6 || r.Bytes != 200 {
		t.Fatalf("aggregate = %+v", r)
	}
	if r.RunMS <= 0 {
		t.Fatalf("RunMS = %v, want > 0", r.RunMS)
	}
	// Taken once, gone after.
	if again := c.Take([]uint64{77}); len(again) != 0 {
		t.Fatalf("second Take returned %v", again)
	}

	// Sharded: two conductor runs under one seed. Counters sum, the
	// worker count is the largest configured, lanes merge by position
	// and pair windows come out sorted by (src, dst) without the
	// zero-count pairs.
	pairs := func(cells map[[2]int]sim.PairWindowStats) [][]sim.PairWindowStats {
		p := make([][]sim.PairWindowStats, 3)
		for i := range p {
			p[i] = make([]sim.PairWindowStats, 3)
		}
		for at, w := range cells {
			p[at[0]][at[1]] = w
		}
		return p
	}
	samples := []RunSample{{
		Engine: sim.EngineStats{Processed: 30}, Bytes: 500, Nodes: 10, Workers: 2,
		Conductor: &sim.ConductorStats{Windows: 5, GlobalWindows: 2, LaneWindows: 7, Stalled: 3, Merged: 11,
			Work: 20, Span: 12, GlobalEvents: 4, Pairs: pairs(map[[2]int]sim.PairWindowStats{
				{2, 1}: {Count: 2, Stalled: 1, WidthSum: 9, Widths: [sim.WindowWidthBuckets]uint64{1, 0, 0, 0, 1}},
				{0, 2}: {Count: 1, WidthSum: 3, Widths: [sim.WindowWidthBuckets]uint64{0, 0, 1}},
				{1, 2}: {}, // zero count: omitted
			})},
		Lanes: []sim.EngineStats{{Processed: 4, Scheduled: 5, Now: 100, MaxPending: 3}, {Processed: 26, Now: 90, MaxPending: 8}},
	}, {
		Engine: sim.EngineStats{Processed: 50}, Bytes: 700, Nodes: 20, Workers: 6,
		Conductor: &sim.ConductorStats{Windows: 8, GlobalWindows: 3, LaneWindows: 9, Stalled: 1, Merged: 13,
			Work: 40, Span: 30, GlobalEvents: 6, Pairs: pairs(map[[2]int]sim.PairWindowStats{
				{2, 1}: {Count: 1, WidthSum: 4, Widths: [sim.WindowWidthBuckets]uint64{0, 0, 0, 1}},
				{1, 2}: {Count: 3, Stalled: 3, Widths: [sim.WindowWidthBuckets]uint64{3}},
			})},
		Lanes: []sim.EngineStats{{Processed: 6, Now: 50, MaxPending: 2}, {Processed: 40, Now: 80, MaxPending: 1}, {Processed: 4}},
	}}
	c.EnableTelemetry()
	for _, sample := range samples {
		s := c.StartRun(88, nil)
		s.RunStarted()
		s.Finish(sample)
	}
	r = c.Take([]uint64{88})[88]
	widths := func(b ...uint64) []uint64 {
		return append(b, make([]uint64, sim.WindowWidthBuckets-len(b))...)
	}
	shard := RunTelemetry{
		ShardWorkers: 6, ShardWindows: 13, ShardGlobalWindows: 5, ShardLaneWindows: 16, ShardStalled: 4,
		ShardMerged: 24, ShardWork: 60, ShardSpan: 42, ShardGlobalEvents: 10,
		Lanes: []LaneTelemetry{
			{Events: 10, Scheduled: 5, SimMS: 150, PeakQueue: 3},
			{Events: 66, SimMS: 170, PeakQueue: 8},
			{Events: 4},
		},
		PairWindows: []PairWindowTelemetry{
			{Src: 0, Dst: 2, Count: 1, WidthSum: 3, Widths: widths(0, 0, 1)},
			{Src: 1, Dst: 2, Count: 3, Stalled: 3, Widths: widths(3)},
			{Src: 2, Dst: 1, Count: 3, Stalled: 1, WidthSum: 13, Widths: widths(1, 0, 0, 1, 1)},
		},
	}
	fold := RunTelemetry{
		ShardWorkers: r.ShardWorkers, ShardWindows: r.ShardWindows, ShardGlobalWindows: r.ShardGlobalWindows,
		ShardLaneWindows: r.ShardLaneWindows, ShardStalled: r.ShardStalled, ShardMerged: r.ShardMerged,
		ShardWork: r.ShardWork, ShardSpan: r.ShardSpan, ShardGlobalEvents: r.ShardGlobalEvents,
		Lanes: r.Lanes, PairWindows: r.PairWindows,
	}
	if !reflect.DeepEqual(fold, shard) {
		t.Fatalf("sharded fold = %+v\nwant %+v", fold, shard)
	}
	if r.Engines != 2 || r.Events != 80 || r.Bytes != 1200 || r.Nodes != 20 {
		t.Fatalf("sharded aggregate = %+v", r)
	}
	if want := float64(r.Events) / (r.RunMS / 1e3); r.RunMS <= 0 || r.EventsPerSec != want {
		t.Fatalf("EventsPerSec = %v over %v ms, want %v", r.EventsPerSec, r.RunMS, want)
	}
	if want := float64(r.PeakHeapBytes) / 20; r.BytesPerNode != want {
		t.Fatalf("BytesPerNode = %v, want %v", r.BytesPerNode, want)
	}
}

func TestCollectorTracingAttachesProbe(t *testing.T) {
	c := &Collector{}
	c.EnableTracing(16)
	defer c.Disable()
	e := sim.NewEngine()
	s := c.StartRun(5, e)
	s.RunStarted()
	h := &busyHandler{}
	for i := 0; i < 6; i++ {
		e.ScheduleCall(sim.Time(i), h, 0, 0)
	}
	e.Run()
	s.Finish(RunSample{Engine: e.Stats()})
	r := c.Take([]uint64{5})[5]
	if len(r.Tracers) != 1 {
		t.Fatalf("tracers = %d, want 1", len(r.Tracers))
	}
	if len(r.Kinds) == 0 || r.Kinds[0].Name != "busy.ping" || r.Kinds[0].Count != 6 {
		t.Fatalf("kinds = %+v", r.Kinds)
	}
}

func TestFinishTwiceCountsOnce(t *testing.T) {
	c := &Collector{}
	c.EnableTelemetry()
	defer c.Disable()
	e := sim.NewEngine()
	s := c.StartRun(3, e)
	e.Run()
	s.Finish(RunSample{Engine: e.Stats()})
	s.Finish(RunSample{Engine: e.Stats()})
	if r := c.Take([]uint64{3})[3]; r.Engines != 1 {
		t.Fatalf("Engines = %d, want 1", r.Engines)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	tr, _ := runTracedEngine(t, 12, 0)
	run := RunTelemetry{Seed: 1, Tracers: []*Tracer{tr}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []TraceRun{{Label: "spec/0", Run: run}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name metadata + 12 spans.
	if len(doc.TraceEvents) != 13 {
		t.Fatalf("got %d trace events, want 13", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "M" {
		t.Fatalf("first event should be metadata, got %v", doc.TraceEvents[0])
	}
}

func TestProgressSamples(t *testing.T) {
	tr, _ := runTracedEngine(t, progressEvery*2+10, 64)
	if got := len(tr.Samples()); got != 2 {
		t.Fatalf("got %d progress samples, want 2", got)
	}
	if tr.Samples()[0].Events != progressEvery {
		t.Fatalf("first sample at %d events, want %d", tr.Samples()[0].Events, progressEvery)
	}
}

func TestProcessSnapshotSane(t *testing.T) {
	ps := ProcessSnapshot()
	if ps.GoVersion == "" || ps.NumCPU <= 0 || ps.HeapAllocBytes == 0 {
		t.Fatalf("implausible process snapshot: %+v", ps)
	}
	// The resident set holds at least the live heap.
	if runtime.GOOS == "linux" && ps.PeakRSSMB*(1<<20) < float64(ps.HeapAllocBytes) {
		t.Fatalf("peak RSS %.1f MiB below the live heap %d B", ps.PeakRSSMB, ps.HeapAllocBytes)
	}
}
