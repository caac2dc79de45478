package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// a module's public API: name, start and end (seconds since the
// recorder was created) and the span that caused it (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// recorder keeps spans in memory until the rep ends. A nil recorder is
// the switched-off state: every method is a no-op, so the end-to-end
// reps and the traced reps run the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (0 when switched off).
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span opened by start.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an interval whose endpoints were observed elsewhere (the
// client side of an HTTP exchange).
func (r *recorder) add(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanTotal is one span name's aggregate over a rep.
type spanTotal struct {
	Count int
	Total float64 // summed durations
	Self  float64 // summed self times
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Children may overlap (runs on two workers), so the
// covered part is the union of their intervals, clipped to the parent.
func selfTime(parent span, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := 0.0, parent.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return parent.End - parent.Start - covered
}

// totalsByName folds a rep's spans into per-name totals and self times.
func totalsByName(spans []span) map[string]spanTotal {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += selfTime(s, children[s.ID])
		out[s.Name] = t
	}
	return out
}
