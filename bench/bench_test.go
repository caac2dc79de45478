package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Self time is duration minus the union of the children's intervals,
// clipped to the parent: overlapping children (two runner workers) must
// not be subtracted twice, and a child may not cover time outside its
// parent.
func TestSpanSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 10, End: 20}
	cases := []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 10},
		{"sequential", []span{{Start: 10, End: 12}, {Start: 15, End: 18}}, 5},
		{"overlapping", []span{{Start: 11, End: 15}, {Start: 13, End: 17}}, 4},
		{"nested", []span{{Start: 11, End: 19}, {Start: 12, End: 13}}, 2},
		{"clipped", []span{{Start: 5, End: 12}, {Start: 18, End: 30}}, 6},
		{"outside", []span{{Start: 0, End: 5}}, 10},
	}
	for _, tc := range cases {
		if got := selfTime(parent, tc.children); !near(got, tc.want) {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpanTotalsAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "campaign", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "experiments.runner", Start: 0, End: 8},
		{ID: 3, Parent: 2, Name: "spec.a", Start: 0, End: 6},
		{ID: 4, Parent: 2, Name: "spec.b", Start: 1, End: 8},
		{ID: 5, Parent: 1, Name: "store.seal", Start: 8, End: 9},
		{ID: 6, Parent: 3, Name: "core.run", Start: 1, End: 5},
	}
	tot := totalsByName(spans)
	if got := tot["campaign"]; !near(got.Total, 10) || !near(got.Self, 1) {
		t.Errorf("campaign = %+v, want total 10 self 1", got)
	}
	if got := tot["experiments.runner"]; !near(got.Self, 0) {
		t.Errorf("runner self = %v, want 0 (children cover 0..8 between them)", got.Self)
	}
	if got := tot["spec.a"]; !near(got.Self, 2) {
		t.Errorf("spec.a self = %v, want 2", got.Self)
	}
	layer := map[string]float64{}
	spanLayer(spans, layer)
	// Leaves are spec.b (1..8), store.seal (8..9), core.run (1..5): they
	// cover 1..9 of the 10 s campaign.
	if got := layer["bench.span_coverage"]; !near(got, 0.8) {
		t.Errorf("coverage = %v, want 0.8", got)
	}
	if got := layer["core.run_s"]; !near(got, 4) {
		t.Errorf("core.run_s = %v, want 4", got)
	}
}

// A switched-off recorder is a nil pointer every call site may use.
func TestNilRecorder(t *testing.T) {
	var r *recorder
	id := r.start("x", 0)
	r.end(id)
	if id != 0 || r.all() != nil {
		t.Fatalf("nil recorder recorded something: id %d, spans %v", id, r.all())
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := percentile(xs, 0.9); !near(got, 4.6) {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The serve-mix list is a pure function of the seed, and every seed
// submits the same work: only order and campaign seeds change.
func TestServeMixList(t *testing.T) {
	a, b := serveMixList(7), serveMixList(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serveMixList(7) differs between two calls")
	}
	c := serveMixList(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("serveMixList(7) and serveMixList(8) are identical")
	}
	if len(a) != mixCampaigns {
		t.Fatalf("list has %d campaigns, want %d", len(a), mixCampaigns)
	}
	shapes := func(seed uint64) []string {
		var out []string
		for _, r := range serveMixList(seed) {
			out = append(out, fmt.Sprintf("%v x%d", r.Specs, r.Repeats))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(shapes(7), shapes(8)) {
		t.Error("seeds 7 and 8 submit different multisets of campaign shapes")
	}
	known := map[string]bool{}
	for _, id := range mixSpecs {
		known[id] = true
	}
	light := false
	for i, r := range a {
		if len(r.Specs) < 1 || len(r.Specs) > 3 || r.Repeats < 1 || r.Repeats > 2 || r.Scale != "small" {
			t.Errorf("campaign %d out of shape: %+v", i, r)
		}
		for _, id := range r.Specs {
			if !known[id] {
				t.Errorf("campaign %d asks for %q, not in mixSpecs", i, id)
			}
		}
		if len(r.Specs) == 1 {
			light = true
		} else if light {
			t.Errorf("campaign %d (%d specs) comes after a single-spec campaign", i, len(r.Specs))
		}
	}
	if _, err := experiments.Select(mixSpecs); err != nil {
		t.Errorf("mixSpecs do not resolve in the registry: %v", err)
	}
	if _, err := experiments.Select(paperSmallSpecs); err != nil {
		t.Errorf("paperSmallSpecs do not resolve in the registry: %v", err)
	}
}

func TestTelemetryLayer(t *testing.T) {
	rows := []experiments.TelemetryRow{
		{Spec: "network", Events: 100, Scheduled: 110, PeakQueue: 7, RunMS: 1500, BuildMS: 500, ElapsedMS: 2100,
			Messages: 40, Bytes: 4000, BytesPerNode: 900,
			Kinds: []obs.KindStats{{Name: "p2p.deliver", Count: 90, WallNanos: 600}, {Name: "timer", Count: 10, WallNanos: 100}}},
		{Spec: "D1", Events: 50, Scheduled: 50, PeakQueue: 9, RunMS: 500, ElapsedMS: 900, Dropped: 3,
			Kinds: []obs.KindStats{{Name: "faults.recover", Count: 5, WallNanos: 300}}},
		{Spec: "overlay", Events: 1000, ElapsedMS: 1000, ShardWindows: 20, ShardStalled: 4, ShardMerged: 30,
			Lanes: []obs.LaneTelemetry{{Events: 10}, {Events: 600}, {Events: 300}, {Events: 90}}},
		{Spec: "T1"},
	}
	got := map[string]float64{}
	telemetryLayer(rows, got)
	want := map[string]float64{
		"sim.events": 1150, "sim.scheduled": 160, "sim.peak_queue": 9,
		"sim.run_s": 2, "core.build_s": 0.5, "core.heap_bytes_per_node": 900,
		"p2p.messages": 40, "p2p.bytes": 4000, "p2p.dropped": 3,
		"sim.conductor.windows": 20, "sim.conductor.stalled_lane_windows": 4, "sim.conductor.merged": 30,
		"sim.conductor.work_span_ratio":            990.0 / 600,
		"experiments.family.blockgossip.events":    1100,
		"experiments.family.blockgossip.elapsed_s": 3.1,
		"experiments.family.faults.events":         50,
		"sim.kind.p2p.deliver.count":               90,
		"sim.kind.p2p.deliver.busy_share":          0.6,
		"sim.kind.faults.count":                    5,
		"sim.kind.faults.busy_share":               0.3,
		"sim.kind.func.count":                      0,
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || !near(g, v) {
			t.Errorf("%s = %v (present %v), want %v", k, g, ok, v)
		}
	}
	if err := checkNames(got); err != nil {
		t.Error(err)
	}
}

// summarize's output checks: a rep whose digest or exact counts differ
// from its siblings is a failed operation.
func TestSummarizeChecks(t *testing.T) {
	rep := func(digest string, events float64, wall float64) repResult {
		return repResult{
			WallS: wall, CPUS: wall, Ops: 3, Digest: digest, SealedS: []float64{wall},
			Layer: map[string]float64{"sim.events": events}, SetupS: 0.01, PeakRSSMB: 50,
		}
	}
	ok := summarize("overlay-10k", []repResult{rep("aa", 100, 1), rep("aa", 100, 3), rep("aa", 100, 2)}, []float64{0.03})
	if ok.failed != 0 || ok.attempted != 12 {
		t.Errorf("clean set: failed %d of %d, want 0 of 12", ok.failed, ok.attempted)
	}
	// Walls 1, 2, 3: times report the first quartile, events_per_s
	// (100, 50, 33.3) the third, and with one campaign per rep both
	// sealed percentiles are the wall.
	if ok.values["campaign_wall_s"] != 1.5 || ok.values["events_per_s"] != 75 ||
		ok.values["sealed_p50_s"] != 1.5 || ok.values["sealed_p90_s"] != 1.5 || ok.values["peak_rss_mb"] != 50 {
		t.Errorf("clean set values: %v", ok.values)
	}
	if got := ok.values["setup_s"]; got != 0.01 {
		t.Errorf("setup_s = %v, want the median of {0.01 x3, 0.03}", got)
	}
	// A rep the hypervisor disturbed is left out of the time metrics, but
	// not when every rep was disturbed.
	slow := rep("aa", 100, 9)
	slow.StolenShare = 0.3
	mixed := summarize("overlay-10k", []repResult{rep("aa", 100, 1), slow, rep("aa", 100, 3)}, nil)
	if mixed.disturbed != 1 || mixed.values["campaign_wall_s"] != 1.5 || len(mixed.samples["peak_rss_mb"]) != 3 {
		t.Errorf("one disturbed rep: disturbed %d, wall %v, rss samples %d", mixed.disturbed, mixed.values["campaign_wall_s"], len(mixed.samples["peak_rss_mb"]))
	}
	if all := summarize("overlay-10k", []repResult{slow, slow}, nil); all.values["campaign_wall_s"] != 9 {
		t.Errorf("all reps disturbed: wall %v, want 9", all.values["campaign_wall_s"])
	}
	drift := summarize("overlay-10k", []repResult{rep("aa", 100, 1), rep("bb", 100, 1)}, nil)
	if drift.failed != 1 {
		t.Errorf("digest drift: %d failures, want 1", drift.failed)
	}
	counts := summarize("overlay-10k", []repResult{rep("aa", 100, 1), rep("aa", 101, 1)}, nil)
	if counts.failed != 1 {
		t.Errorf("count drift: %d failures, want 1", counts.failed)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json and the harness must name the same workloads and the
// same metrics, with the same units, directions and bounds: the file is
// what the driver reads, the catalogue is what the harness prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, harness has %q / %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile    %+v\nharness %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile    %+v\nharness %+v", f.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's limits", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup || len(perLayer) > 128 {
		t.Errorf("setup_s present: %v; %d per-layer metrics (limit 128)", setup, len(perLayer))
	}
	for _, k := range exactCounts {
		if !seen[k] {
			t.Errorf("exact count %s is not a per-layer metric", k)
		}
	}
}
