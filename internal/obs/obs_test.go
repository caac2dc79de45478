package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
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
	if r.RunNanos <= 0 {
		t.Fatalf("RunNanos = %d, want > 0", r.RunNanos)
	}
	// Taken once, gone after.
	if again := c.Take([]uint64{77}); len(again) != 0 {
		t.Fatalf("second Take returned %v", again)
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

func TestWriteTraceJSONL(t *testing.T) {
	tr, _ := runTracedEngine(t, 5, 0)
	run := RunTelemetry{Seed: 1, Tracers: []*Tracer{tr}}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, []TraceRun{{Label: "spec/0", Run: run}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d JSONL lines, want 5", len(lines))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec["run"] != "spec/0" {
			t.Fatalf("run label = %v", rec["run"])
		}
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
