package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/sim"
)

// DefaultSpanCap bounds the tracer ring buffer: 64k spans at 32 bytes
// each is ~2 MiB per engine, enough to hold the tail of any campaign
// without letting a 100k-node run eat the heap.
const DefaultSpanCap = 1 << 16

// progressEvery is the dispatch interval between sim-vs-wall progress
// samples.
const progressEvery = 1 << 12

// maxOpBucket caps per-opcode stat fan-out for a single handler type;
// opcodes at or beyond the cap share one overflow bucket.
const maxOpBucket = 16

// KindStats profiles one event kind — a (class, handler type, opcode)
// combination such as "p2p.deliver" or "timer".
type KindStats struct {
	Name         string `json:"name"`
	Count        uint64 `json:"count"`
	WallNanos    int64  `json:"wall_nanos"`
	MaxWallNanos int64  `json:"max_wall_nanos"`
}

// Span is one dispatched event in the tracer ring: wall-clock offset
// and duration in nanoseconds since the tracer was created, plus the
// engine's virtual clock and an index into the kind table.
type Span struct {
	Start int64
	Dur   int64
	Sim   sim.Time
	Kind  uint32
}

// ProgressSample correlates dispatch count, virtual time and wall
// time — the "is sim time outpacing wall time" curve.
type ProgressSample struct {
	Events    uint64   `json:"events"`
	Sim       sim.Time `json:"sim_ms"`
	WallNanos int64    `json:"wall_nanos"`
}

type kindKey struct {
	class sim.EventClass
	h     sim.Handler
	op    uint64
}

// Tracer is a sim.Probe that records every dispatch into a bounded
// ring of spans and an unbounded (but tiny — one entry per event
// kind) stat table. It allocates only when a new kind first appears
// or the ring grows toward its cap, reads no RNG, and is not
// goroutine-safe — one tracer per engine, like the engine itself.
type Tracer struct {
	start   time.Time
	kinds   map[kindKey]uint32
	stats   []KindStats
	spans   []Span
	head    int
	total   uint64
	dropped uint64
	cap     int
	samples []ProgressSample
}

// NewTracer returns a tracer holding at most spanCap ring spans
// (<= 0 means DefaultSpanCap).
func NewTracer(spanCap int) *Tracer {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &Tracer{
		start: time.Now(),
		kinds: make(map[kindKey]uint32, 16),
		cap:   spanCap,
	}
}

// Dispatch implements sim.Probe.
func (t *Tracer) Dispatch(now sim.Time, class sim.EventClass, h sim.Handler, op uint64, wall time.Duration) {
	key := kindKey{class: class}
	if class == sim.EventCall {
		key.h = h
		key.op = min(op, maxOpBucket)
	}
	idx, ok := t.kinds[key]
	if !ok {
		idx = uint32(len(t.stats))
		t.kinds[key] = idx
		t.stats = append(t.stats, KindStats{Name: kindName(class, h, op)})
	}
	st := &t.stats[idx]
	st.Count++
	st.WallNanos += wall.Nanoseconds()
	st.MaxWallNanos = max(st.MaxWallNanos, wall.Nanoseconds())

	end := time.Since(t.start).Nanoseconds()
	span := Span{Start: end - wall.Nanoseconds(), Dur: wall.Nanoseconds(), Sim: now, Kind: idx}
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, span)
	} else {
		// Ring full: overwrite the oldest span.
		t.spans[t.head] = span
		t.head++
		if t.head == t.cap {
			t.head = 0
		}
		t.dropped++
	}

	t.total++
	if t.total%progressEvery == 0 {
		t.samples = append(t.samples, ProgressSample{Events: t.total, Sim: now, WallNanos: end})
	}
}

// kindName labels an event kind: timers and bare funcs by class,
// calls by the handler's own EventName when it implements
// sim.EventNamer, else by dynamic type and opcode.
func kindName(class sim.EventClass, h sim.Handler, op uint64) string {
	if class != sim.EventCall {
		return class.String()
	}
	if n, ok := h.(sim.EventNamer); ok {
		return n.EventName(op)
	}
	if op >= maxOpBucket {
		return fmt.Sprintf("%T[op>=%d]", h, maxOpBucket)
	}
	return fmt.Sprintf("%T[%d]", h, op)
}

// Events is the total dispatch count the tracer observed.
func (t *Tracer) Events() uint64 { return t.total }

// Dropped counts spans evicted from the full ring (the kind stats
// still include them).
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Kinds returns a copy of the per-kind profile sorted by descending
// wall time.
func (t *Tracer) Kinds() []KindStats {
	out := make([]KindStats, len(t.stats))
	copy(out, t.stats)
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallNanos > out[j].WallNanos })
	return out
}

// Samples returns the recorded progress samples.
func (t *Tracer) Samples() []ProgressSample { return t.samples }

// Spans yields the retained spans oldest-first (the ring unrolled).
func (t *Tracer) Spans() []Span {
	if len(t.spans) < t.cap || t.head == 0 {
		return t.spans
	}
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.head:]...)
	out = append(out, t.spans[:t.head]...)
	return out
}

// TraceRun pairs a run's telemetry with a display label for export.
type TraceRun struct {
	Label string
	Run   RunTelemetry
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto). Timestamps and durations are in
// microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
	Cat  string         `json:"cat,omitempty"`
}

// WriteChromeTrace writes the runs' span rings as a Chrome
// trace-event JSON object: one trace process per run (named by its
// label), one thread per engine within the run.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		buf, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(buf)
		return err
	}
	for pid, tr := range runs {
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": tr.Label},
		}); err != nil {
			return err
		}
		for tid, tracer := range tr.Run.Tracers {
			for _, sp := range tracer.Spans() {
				if err := emit(chromeEvent{
					Name: tracer.stats[sp.Kind].Name,
					Ph:   "X",
					Pid:  pid,
					Tid:  tid,
					Ts:   float64(sp.Start) / 1e3,
					Dur:  float64(sp.Dur) / 1e3,
					Cat:  "sim",
					Args: map[string]any{"sim_ms": int64(sp.Sim)},
				}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
