// Command ethrepro regenerates the paper's tables and figures by
// running the registered experiments as a parallel campaign: every
// (experiment, repeat) pair fans across a worker pool, outcomes are
// aggregated (mean/std across repeats), and CSV/JSON artifacts are
// written per run directory. Results are byte-identical at any
// -parallel setting: each run's seed derives only from the base seed,
// the experiment ID and the repeat index.
//
// Declarative scenario files (see EXPERIMENTS.md and
// examples/scenarios/) compile into additional registry specs at
// startup: -scenario loads one or more files, expands their parameter
// sweeps into variants, and registers each variant alongside the
// built-ins, so -list, -only, -repeats and -out all apply to them.
// Run directories for scenario campaigns embed the resolved scenario
// (scenario.json) for replay.
//
// Usage:
//
//	ethrepro [-seed 42] [-scale small|medium|paper|stress|stress100k] [-only F1,chain,...]
//	         [-parallel N] [-repeats N] [-shards N] [-out paper_runs/run1]
//	         [-scenario file.json,...] [-list]
//	         [-telemetry=false] [-trace trace.json]
//
// -shards N (or the ETHREPRO_SHARDS environment variable) runs each
// campaign on the sharded conductor: one event lane per geographic
// region advanced concurrently by N workers under conservative
// lookahead. Artifacts are byte-identical across every -shards value
// >= 1 (and across -parallel, as always); they form a separate
// deterministic family from -shards 0, the single-engine default.
// See docs/PERFORMANCE.md, "Sharded execution".
//
// With -out, a telemetry.json performance record (events/sec, wall
// time per phase, peak queue depth, transport counters, GC stats) is
// written and sealed alongside the artifacts; -telemetry=false omits
// it. -trace additionally captures per-event dispatch spans and
// writes a Chrome trace-event file (load in chrome://tracing or
// Perfetto; use a .jsonl suffix for line-delimited JSON). Neither
// consumes simulation RNG: the science artifacts stay byte-identical
// with observability on or off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

func main() {
	// SIGINT cancels the campaign cleanly: dispatch stops, in-flight
	// runs drain, and -out still writes a complete, digest-sealed run
	// directory for whatever finished (no partial files).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ethrepro:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ethrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 42, "campaign base seed")
		scaleStr = fs.String("scale", "small", "experiment scale: "+scaleNames())
		only     = fs.String("only", "", "comma-separated experiment or outcome IDs (default: all)")
		parallel = fs.Int("parallel", 0, "concurrent experiments (0 = GOMAXPROCS)")
		shards   = fs.Int("shards", 0, "intra-run execution workers on the sharded conductor (0 = single engine; >=1 shards each run by region, byte-identical across values)")
		repeats  = fs.Int("repeats", 0, "independent repeats per experiment (0 = 1, or a scenario's suggested count)")
		outDir   = fs.String("out", "", "run directory for CSV/JSON artifacts (default: none)")
		scenFlag = fs.String("scenario", "", "comma-separated scenario files to compile into the registry")
		list     = fs.Bool("list", false, "list registered experiments and exit")
		telem    = fs.Bool("telemetry", true, "write telemetry.json (engine stats, throughput) into the -out run directory")
		traceOut = fs.String("trace", "", "write an engine dispatch trace to this file (Chrome trace-event JSON; .jsonl for JSONL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d: want 0 (single engine) or a worker count >= 1", *shards)
	}
	sets, err := loadScenarios(*scenFlag)
	if err != nil {
		return err
	}
	if *list {
		all, err := scenario.Extend(experiments.Specs(), sets)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, renderRegistry(all))
		return nil
	}
	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	// -scenario without -only runs the scenario's variants; sets keeps
	// only the scenarios that actually run, and an unset -repeats takes
	// their suggestion (scenario.Resolve, shared with ethserve).
	specs, sets, runs, err := scenario.Resolve(experiments.Specs(), sets, ids, *repeats)
	if err != nil {
		return err
	}

	// The parallel setting must not appear on stdout: stdout is
	// byte-identical across -parallel values, which is the campaign's
	// determinism contract.
	fmt.Fprintf(stdout, "ethrepro: seed=%d scale=%s repeats=%d specs=%d\n\n",
		*seed, scale, runs, len(specs))
	fmt.Fprintf(stderr, "ethrepro: parallel=%d\n",
		experiments.EffectiveParallel(*parallel, len(specs), runs, 0))
	// -shards rides the same environment knob campaigns already read,
	// so it reaches every spec builder without threading a parameter
	// through the registry. Like -parallel it never prints to stdout:
	// artifacts (and stdout) are byte-identical across shard counts.
	if *shards > 0 {
		// run is re-entrant: the knob goes back the way it was found.
		if prev, had := os.LookupEnv("ETHREPRO_SHARDS"); had {
			defer os.Setenv("ETHREPRO_SHARDS", prev)
		} else {
			defer os.Unsetenv("ETHREPRO_SHARDS")
		}
		if err := os.Setenv("ETHREPRO_SHARDS", fmt.Sprint(*shards)); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ethrepro: shards=%d\n", *shards)
	}
	// Observability is opt-in per invocation. Tracing and telemetry
	// read only engine counters and wall clocks, never RNG, so the
	// artifact bytes (outcomes, CSVs, manifest) are identical either
	// way; telemetry.json is the one artifact carrying wall-clock
	// content, which is why -telemetry only matters alongside -out.
	collect := (*outDir != "" && *telem) || *traceOut != ""
	if *traceOut != "" {
		obs.Default.EnableTracing(0)
	} else if collect {
		obs.Default.EnableTelemetry()
	}
	if collect {
		defer obs.Default.Disable()
	}
	start := time.Now()
	report, runErr := experiments.Run(ctx, specs, experiments.RunnerConfig{
		Seed:     *seed,
		Scale:    scale,
		Repeats:  runs,
		Parallel: *parallel,
		// Progress (completion order, wall-clock) goes to stderr so
		// stdout stays deterministic across -parallel settings.
		OnResult: func(r experiments.Result) {
			status := "ok"
			if r.Err != nil {
				status = "FAILED: " + r.Err.Error()
			}
			fmt.Fprintf(stderr, "ethrepro: %-8s repeat %d  %8s  %s\n",
				r.Spec.ID, r.Repeat, r.Elapsed.Round(time.Millisecond), status)
		},
	})
	if report != nil {
		emitReport(stdout, report)
	}
	var taken map[uint64]obs.RunTelemetry
	if collect && report != nil {
		taken = obs.Default.Take(experiments.ReportSeeds(report))
	}
	if *traceOut != "" && report != nil {
		if err := writeTrace(*traceOut, report, taken); err != nil {
			return errors.Join(runErr, err)
		}
		fmt.Fprintf(stderr, "ethrepro: trace written to %s\n", *traceOut)
	}
	if *outDir != "" && report != nil {
		var tel *experiments.Telemetry
		if *telem {
			tel = experiments.BuildTelemetry(report, taken)
		}
		if err := scenario.Seal(store.NewFS(*outDir), report, sets, tel); err != nil {
			// Keep the campaign failure visible alongside the write
			// failure.
			return errors.Join(runErr, err)
		}
		fmt.Fprintf(stdout, "artifacts written to %s\n", *outDir)
	}
	fmt.Fprintf(stderr, "ethrepro: done in %s\n", time.Since(start).Round(time.Millisecond))
	return runErr
}

// scaleNames lists every -scale value: the Scale constants in order,
// under the names ParseScale accepts.
func scaleNames() string {
	var names []string
	for s := experiments.ScaleSmall; s.String() != "unknown"; s++ {
		names = append(names, s.String())
	}
	return strings.Join(names, "|")
}

// emitReport prints the rendered outcomes (first repeat, registration
// order) and the cross-repeat summary.
func emitReport(w io.Writer, report *experiments.Report) {
	fmt.Fprint(w, report.RenderOutcomes())
	if report.Repeats > 1 {
		fmt.Fprint(w, report.RenderSummary())
	}
}

// writeTrace exports the campaign's engine dispatch spans, one trace
// process per (spec, repeat) run, to a Chrome trace-event file (or
// JSONL when the path ends in .jsonl).
func writeTrace(path string, report *experiments.Report, taken map[uint64]obs.RunTelemetry) error {
	var runs []obs.TraceRun
	for _, res := range report.Results {
		rt, ok := taken[res.Seed]
		if !ok || len(rt.Tracers) == 0 {
			continue
		}
		runs = append(runs, obs.TraceRun{
			Label: fmt.Sprintf("%s/%d seed=%d", res.Spec.ID, res.Repeat, res.Seed),
			Run:   rt,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = obs.WriteTraceJSONL(f, runs)
	} else {
		err = obs.WriteChromeTrace(f, runs)
	}
	return errors.Join(err, f.Close())
}

// loadScenarios parses every scenario file named by the
// comma-separated flag value.
func loadScenarios(flagValue string) ([]*scenario.Set, error) {
	var sets []*scenario.Set
	for _, path := range strings.Split(flagValue, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		set, err := scenario.Load(path)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// renderRegistry prints the experiment registry table (-list),
// including any compiled scenario variants.
func renderRegistry(specs []experiments.Spec) string {
	out := fmt.Sprintf("%-10s %-22s %s\n", "id", "produces", "title")
	for _, s := range specs {
		out += fmt.Sprintf("%-10s %-22s %s\n", s.ID, strings.Join(s.Produces, ","), s.Title)
	}
	return out
}
