package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/server"
)

// A rep is one cold run of a workload in a child process of its own,
// like a real CLI invocation. The mode says what is recorded:
//
//	plain   nothing but telemetry counters (the end-to-end reps)
//	spans   the harness's own spans, kept in memory until the rep ends
//	tracer  the engine tracer (obs.Default.EnableTracing), for sim.kind.*
//	setup   set-up only: the child exits once it is ready
const (
	modePlain  = "plain"
	modeSpans  = "spans"
	modeTracer = "tracer"
	modeSetup  = "setup"
)

// readyLine is what a child prints when set-up is done and the timed
// region starts; the parent stamps its arrival to get setup_s.
const readyLine = "bench-child-ready"

// repResult is what one rep reports to the parent, as the last line of
// the child's standard output.
type repResult struct {
	// WallS is submission -> sealed and verified: one campaign, or the
	// makespan of the serve-mix list. CPUS is the user+system CPU of
	// the same region.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// Ops and Failed count operations (see README: failed_share).
	Ops    int      `json:"ops"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
	// Digest identifies the simulated outcome: the SHA-256 of
	// outcomes.json (serve-mix: of the campaigns' digests in list order).
	Digest string `json:"digest"`
	// SealedS are the per-campaign submission -> sealed times.
	SealedS []float64 `json:"sealed_s"`
	// Layer holds the per-layer numbers this rep could measure.
	Layer map[string]float64 `json:"layer"`
	// Spans is the rep's span log (spans mode only).
	Spans []span `json:"spans,omitempty"`

	// Filled in by the parent from the child process and the host.
	SetupS      float64 `json:"-"`
	PeakRSSMB   float64 `json:"-"`
	StolenShare float64 `json:"-"`
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runChild is the child side of a rep: set up, announce readiness, run
// the timed region, print the result.
func runChild(name string, seed uint64, mode, dir string) error {
	// The harness pins the execution path through config fields; an
	// inherited knob must not override it.
	os.Unsetenv("ETHREPRO_SHARDS")
	os.Unsetenv("ETHREPRO_UNIFORM_LOOKAHEAD")
	var rec *recorder
	if mode == modeSpans {
		rec = newRecorder()
	}
	if mode == modeTracer {
		obs.Default.EnableTracing(0)
	} else {
		obs.Default.EnableTelemetry()
	}

	var timed func() repResult
	if name == "serve-mix" {
		svc := startService(filepath.Join(dir, "store"))
		defer svc.close()
		warm := svc.submit(http.DefaultClient, server.SubmitRequest{Specs: []string{"T1"}, Seed: seed})
		if warm.failed > 0 {
			return fmt.Errorf("warm-up campaign: %s", strings.Join(warm.errs, "; "))
		}
		list := serveMixList(seed)
		timed = func() repResult { return serveRep(svc, list, rec) }
	} else {
		p := &probe{rec: rec}
		specs, err := campaignSpecs(name, p)
		if err != nil {
			return err
		}
		t1, err := experiments.Select([]string{"T1"})
		if err != nil {
			return err
		}
		if warm := runCampaign(&probe{}, 0, t1, seed, filepath.Join(dir, "warmup")); warm.failed > 0 {
			return fmt.Errorf("warm-up campaign: %s", strings.Join(warm.errs, "; "))
		}
		timed = func() repResult { return campaignRep(p, specs, seed, filepath.Join(dir, "run")) }
	}

	fmt.Println(readyLine)
	if mode == modeSetup {
		return nil
	}
	res := timed()
	res.Spans = rec.all()
	spanLayer(res.Spans, res.Layer)
	return json.NewEncoder(os.Stdout).Encode(res)
}

// campaignRep times one campaign from submission to a sealed and
// verified run directory.
func campaignRep(p *probe, specs []experiments.Spec, seed uint64, dir string) repResult {
	root := p.rec.start("campaign", 0)
	cpu0, t0 := cpuSeconds(), time.Now()
	got := runCampaign(p, root, specs, seed, dir)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	p.rec.end(root)

	layer := map[string]float64{}
	telemetryLayer(got.rows, layer)
	// With two runner workers, Σ run time ÷ (2 × runner wall) is the
	// share of the worker pool the campaign kept busy.
	layer["experiments.runner_s"] = got.runnerS
	layer["experiments.parallel_efficiency"] = got.runElapsed.Seconds() / (workers * got.runnerS)
	return repResult{
		WallS: wall, CPUS: cpu,
		Ops: got.ops, Failed: got.failed, Errors: got.errs,
		Digest:  got.digest,
		SealedS: []float64{wall},
		Layer:   layer,
	}
}

// serveRep times the serve-mix list: two closed-loop clients drain it
// through the in-process ethserve. WallS is the makespan.
func serveRep(svc *service, list []server.SubmitRequest, rec *recorder) repResult {
	res := repResult{Layer: map[string]float64{}}
	scrape := func() float64 {
		res.Ops++
		v, err := svc.storeSeconds(http.DefaultClient)
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
		}
		return v
	}
	storeBefore := scrape()
	root := rec.start("campaign", 0)
	cpu0, t0 := cpuSeconds(), time.Now()
	done := svc.drain(list)
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	rec.end(root)
	storeS := scrape() - storeBefore

	res.Digest = listDigest(done)
	var rows []experiments.TelemetryRow
	var submit, wait, run, fetch []float64
	var runElapsed time.Duration
	rejected := 0
	for _, d := range done {
		res.Ops += d.ops
		res.Failed += d.failed
		res.Errors = append(res.Errors, d.errs...)
		if d.rejected {
			rejected++
		}
		if d.failed > 0 {
			continue
		}
		rows = append(rows, d.rows...)
		runElapsed += d.runElapsed
		res.SealedS = append(res.SealedS, d.verified.Sub(d.post).Seconds())
		submit = append(submit, d.accepted.Sub(d.post).Seconds()*1e3)
		wait = append(wait, d.running.Sub(d.accepted).Seconds()*1e3)
		run = append(run, d.terminal.Sub(d.running).Seconds())
		fetch = append(fetch, d.fetched.Sub(d.terminal).Seconds()*1e3)
		rec.add("server.submit", root, d.post, d.accepted)
		rec.add("server.queue_wait", root, d.accepted, d.running)
		rec.add("server.run", root, d.running, d.terminal)
		rec.add("server.fetch", root, d.terminal, d.fetched)
		rec.add("store.verify", root, d.fetched, d.verified)
	}
	l := res.Layer
	telemetryLayer(rows, l)
	l["server.submit_ms_p50"] = median(submit)
	l["server.queue_wait_ms_p50"] = median(wait)
	l["server.queue_wait_ms_p90"] = percentile(wait, 0.9)
	l["server.run_s_p50"] = median(run)
	l["server.fetch_ms_p50"] = median(fetch)
	l["server.store_ms_per_campaign"] = storeS * 1e3 / float64(len(list))
	l["server.rejected"] = float64(rejected)
	l["server.campaigns_per_s"] = float64(len(res.SealedS)) / res.WallS
	// The client sees the runner only through the event stream: the
	// running -> terminal phases, summed over campaigns that overlap two
	// at a time, and the runs' own elapsed times.
	sum := 0.0
	for _, r := range run {
		sum += r
	}
	l["experiments.runner_s"] = sum
	l["experiments.parallel_efficiency"] = runElapsed.Seconds() / (workers * res.WallS)
	return res
}

// telemetryLayer reduces telemetry.json rows — the program's own
// counters, one row per (spec, repeat) run — to per-layer numbers.
func telemetryLayer(rows []experiments.TelemetryRow, out map[string]float64) {
	famElapsed := map[string]float64{}
	famEvents := map[string]float64{}
	kindCount := map[string]float64{}
	kindWall := map[string]float64{}
	var kindTotal, work, spanEvents float64
	for _, r := range rows {
		out["sim.events"] += float64(r.Events)
		out["sim.scheduled"] += float64(r.Scheduled)
		out["sim.peak_queue"] = max(out["sim.peak_queue"], float64(r.PeakQueue))
		out["sim.run_s"] += r.RunMS / 1e3
		out["core.build_s"] += r.BuildMS / 1e3
		out["core.heap_bytes_per_node"] = max(out["core.heap_bytes_per_node"], r.BytesPerNode)
		out["p2p.messages"] += float64(r.Messages)
		out["p2p.bytes"] += float64(r.Bytes)
		out["p2p.dropped"] += float64(r.Dropped)
		out["sim.conductor.windows"] += float64(r.ShardWindows)
		out["sim.conductor.stalled_lane_windows"] += float64(r.ShardStalled)
		out["sim.conductor.merged"] += float64(r.ShardMerged)
		// Lane 0 is the global lane (phase A, serial); the region lanes
		// are phase B's work, the busiest of them its span.
		if len(r.Lanes) > 1 {
			busiest := 0.0
			for _, ln := range r.Lanes[1:] {
				work += float64(ln.Events)
				busiest = max(busiest, float64(ln.Events))
			}
			spanEvents += busiest
		}
		if name, ok := families[r.Spec]; ok {
			famElapsed[name] += r.ElapsedMS / 1e3
			famEvents[name] += float64(r.Events)
		}
		for _, k := range r.Kinds {
			name := k.Name
			if strings.HasPrefix(name, "faults.") {
				name = "faults"
			}
			kindCount[name] += float64(k.Count)
			kindWall[name] += float64(k.WallNanos)
			kindTotal += float64(k.WallNanos)
		}
	}
	if spanEvents > 0 {
		out["sim.conductor.work_span_ratio"] = work / spanEvents
	}
	for name, elapsed := range famElapsed {
		out["experiments.family."+name+".elapsed_s"] = elapsed
		out["experiments.family."+name+".events"] = famEvents[name]
		if elapsed > 0 {
			out["experiments.family."+name+".events_per_s"] = famEvents[name] / elapsed
		}
	}
	if kindTotal > 0 { // only the tracer rep has kinds
		for _, name := range kindNames {
			out["sim.kind."+name+".count"] = kindCount[name]
			out["sim.kind."+name+".busy_share"] = kindWall[name] / kindTotal
		}
	}
}

// spanLayer turns the rep's span totals into the span-backed metrics.
// bench.span_coverage is the share of the campaign span during which a
// leaf span (one with no children: a single module call) was open — the
// check that the spans account for the wall.
func spanLayer(spans []span, out map[string]float64) {
	if len(spans) == 0 {
		return
	}
	totals := totalsByName(spans)
	for _, name := range []string{
		"core.run", "analysis.index", "analysis.compute", "analysis.render",
		"experiments.write", "store.seal", "store.verify",
	} {
		out[name+"_s"] = totals[name].Total
	}
	parents := map[int]bool{}
	for _, s := range spans {
		parents[s.Parent] = true
	}
	var root span
	var leaves []span
	for _, s := range spans {
		switch {
		case s.Parent == 0:
			root = s
		case !parents[s.ID]:
			leaves = append(leaves, s)
		}
	}
	if d := root.End - root.Start; d > 0 {
		out["bench.span_coverage"] = 1 - selfTime(root, leaves)/d
	}
}
