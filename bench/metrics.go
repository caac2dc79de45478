package main

import (
	"repro/internal/p2p/relay"
)

// metricDef names one metric the harness prints. BENCHMARK.json lists
// the same names, units and directions; a unit test holds the two
// together.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Each is reported for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"campaign_wall_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sealed_p50_s", "s", "lower", 0.25},
	{"sealed_p90_s", "s", "lower", 0.25},
}

// repQuantile says which quantile of a run's per-rep values is reported.
// The default is the better quartile — the first for times, the third
// for events_per_s — not the median: on a shared host the noise is
// one-sided (steal and cache contention only ever slow a rep down, in
// bursts that can cover half the reps of a run), and the better quartile
// of identical reps moved about half as much between runs as their
// median did when this was written. peak_rss_mb has no such one-sided
// noise and setup_s has twenty samples; both report the median.
func repQuantile(m metricDef) float64 {
	switch {
	case m.Name == "setup_s" || m.Name == "peak_rss_mb":
		return 0.5
	case m.Better == "higher":
		return 0.75
	}
	return 0.25
}

// kindNames are the engine event kinds the tracer rep is reduced to;
// "faults" folds every faults.* handler opcode.
var kindNames = []string{"p2p.deliver", "p2p.announce", "timer", "func", "mining.visibility", "faults"}

// perLayer are the metrics of single layers, taken in the traced set.
// The layer is the module name a metric starts with.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) {
		m = append(m, metricDef{Name: name, Unit: unit, Better: better})
	}

	// sim: exact counts and engine time from telemetry, event kinds from
	// the tracer rep, conductor counters (sharded runs only), rungs.
	add("sim.events", "count", "lower")
	add("sim.scheduled", "count", "lower")
	add("sim.peak_queue", "count", "lower")
	add("sim.run_s", "s", "lower")
	for _, k := range kindNames {
		add("sim.kind."+k+".count", "count", "lower")
		add("sim.kind."+k+".busy_share", "share", "lower")
	}
	add("sim.conductor.windows", "count", "lower")
	add("sim.conductor.stalled_lane_windows", "count", "lower")
	add("sim.conductor.merged", "count", "lower")
	add("sim.conductor.work_span_ratio", "ratio", "higher")
	add("sim.engine.hold_q1_ns", "ns", "lower")
	add("sim.engine.hold_q1k_ns", "ns", "lower")
	add("sim.engine.hold_q32k_ns", "ns", "lower")
	add("sim.timer.reset_ns", "ns", "lower")
	add("sim.conductor.window_w1_ns", "ns", "lower")
	add("sim.conductor.window_w2_ns", "ns", "lower")

	add("geo.sample_ns", "ns", "lower")

	add("p2p.messages", "count", "lower")
	add("p2p.bytes", "B", "lower")
	add("p2p.dropped", "count", "lower")
	add("p2p.build_us_per_node", "us", "lower")
	for _, mode := range relay.Modes() {
		add("p2p.spread."+mode.String()+".ns_per_msg", "ns", "lower")
		add("p2p.spread."+mode.String()+".msgs_per_block", "count", "lower")
	}

	add("core.build_s", "s", "lower")
	add("core.run_s", "s", "lower")
	add("core.heap_bytes_per_node", "B", "lower")

	add("mining.chain_only_blocks_per_s", "1/s", "higher")

	// measure, analysis, store, scenario: spans of the campaign tail,
	// then rungs on one raw-log fixture.
	add("analysis.index_s", "s", "lower")
	add("analysis.compute_s", "s", "lower")
	add("analysis.render_s", "s", "lower")
	add("experiments.write_s", "s", "lower")
	add("store.seal_s", "s", "lower")
	add("store.verify_s", "s", "lower")
	add("measure.records", "count", "lower")
	add("measure.jsonl_encode_mb_s", "MB/s", "higher")
	add("measure.jsonl_decode_mb_s", "MB/s", "higher")
	add("analysis.from_records_ms", "ms", "lower")
	add("analysis.build_index_ms", "ms", "lower")
	add("analysis.index_streams_ms", "ms", "lower")
	add("store.fs_put_mb_s", "MB/s", "higher")
	add("store.fs_put_small_us", "us", "lower")
	add("store.manifest_ms", "ms", "lower")
	add("store.verify_ms", "ms", "lower")
	add("scenario.compile_ms", "ms", "lower")

	add("experiments.runner_s", "s", "lower")
	add("experiments.parallel_efficiency", "ratio", "higher")
	for _, f := range familyNames {
		add("experiments.family."+f+".elapsed_s", "s", "lower")
		add("experiments.family."+f+".events", "count", "lower")
		add("experiments.family."+f+".events_per_s", "1/s", "higher")
	}

	// server: the client side of serve-mix, and the T1 rung.
	add("server.submit_ms_p50", "ms", "lower")
	add("server.queue_wait_ms_p50", "ms", "lower")
	add("server.queue_wait_ms_p90", "ms", "lower")
	add("server.run_s_p50", "s", "lower")
	add("server.fetch_ms_p50", "ms", "lower")
	add("server.store_ms_per_campaign", "ms", "lower")
	add("server.rejected", "count", "lower")
	add("server.campaigns_per_s", "1/s", "higher")
	add("server.t1_sealed_ms_p50", "ms", "lower")

	add("obs.trace_overhead_ratio", "ratio", "lower")
	add("obs.tracer_ns_per_event", "ns", "lower")
	add("bench.span_overhead_ratio", "ratio", "lower")
	add("bench.span_coverage", "ratio", "higher")
	return m
}

// exactCounts are the layer metrics that are pure functions of the
// inputs: every rep of a workload, traced or not, must report the same
// value, and two sets of the same code must agree on them exactly.
var exactCounts = []string{
	"sim.events", "sim.scheduled", "p2p.messages", "p2p.bytes", "p2p.dropped",
	"sim.conductor.windows", "sim.conductor.stalled_lane_windows", "sim.conductor.merged",
	"sim.conductor.work_span_ratio",
}
