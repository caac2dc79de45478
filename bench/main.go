// Command bench is the repository's benchmark: four campaign workloads
// timed from submission to a sealed, store.Verify-clean run directory,
// and a ladder of per-layer numbers measured from outside the modules.
// See README.md in this directory for the metrics, the workloads and
// how they interact.
//
// One run of one workload, as the benchmark contract (BENCHMARK.json)
// drives it:
//
//	go run ./bench --workload overlay-10k --seed 7 --seconds 20 --trace 0
//
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as one JSON object on the last line of standard output.
//
// Without --workload the harness runs whole sets over all four
// workloads, reps round-robin (A,B,C,D,A,B,...) so a slow spell of the
// host lands on all of them:
//
//	go run ./bench -seed 42              end-to-end, traced and rung sets
//	go run ./bench -seed 42 -set e2e     one set: e2e | traced | rungs
//	go run ./bench -selfcheck            two end-to-end sets, compared
//
// Every rep is a fresh child process (this binary with -child), so each
// is cold like a real CLI run and its CPU and peak RSS are its own.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload under the benchmark contract: "+strings.Join(workloadNames(), " | "))
		seed      = flag.Uint64("seed", 42, "campaign base seed; also seeds the serve-mix list")
		seconds   = flag.Int("seconds", 30, "with -workload: how long to measure")
		trace     = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		set       = flag.String("set", "all", "without -workload: which set to run: e2e | traced | rungs | all")
		selfcheck = flag.Bool("selfcheck", false, "run two end-to-end sets of the same code and compare them against the bounds")
		child     = flag.String("child", "", "internal: run one rep in this mode and exit")
		dir       = flag.String("dir", "", "internal: the child's work directory")
	)
	flag.Parse()
	if *child != "" {
		if err := runChild(*name, *seed, *child, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}

	// An interrupt cancels the context, which kills the running child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(ctx, *seed)
	case *name != "":
		err = runContract(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	default:
		err = runSets(ctx, *seed, *set)
	}
	stop()
	// Removes the work directory only when nothing is left in it.
	os.Remove(workRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printHost records what the numbers were measured on.
func printHost(seed uint64) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("bench: seed=%d workers=%d GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n",
		seed, workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), commit)
}

// contractResult is the last line of a contract run's standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is one run under the benchmark contract: measure one
// workload for about `budget`, check its outputs, and print the
// end-to-end metrics (or, traced, the per-layer metrics) as JSON.
func runContract(ctx context.Context, name string, seed uint64, budget time.Duration, traceOn bool) error {
	if !slices.Contains(workloadNames(), name) {
		return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
	}
	printHost(seed)
	out := contractResult{Metrics: map[string]contractValue{}}
	if name == "overlay-10k-sharded" {
		out.Attempted++
		if err := shardProbeInWorkDir(seed); err != nil {
			out.Failed++
			fmt.Println("FAILED:", err)
		}
	}

	if traceOn {
		t, err := traceWorkload(ctx, name, seed, 1)
		if err != nil {
			return err
		}
		for k, v := range runRungs(quickRungs) {
			t.layer[k] = v
		}
		if err := t.report(os.Stdout, name+" — per-layer metrics (traced set, quick rungs)"); err != nil {
			return err
		}
		out.Attempted += t.ops
		out.Failed += t.failed
		for _, m := range perLayer {
			// A metric the workload has no use for (sim.conductor.* on a
			// single engine, server.* without a server) reads 0.
			out.Metrics[m.Name] = contractValue{t.layer[m.Name], m.Unit}
		}
	} else {
		// Fit as many reps as the budget holds: stop when the longest
		// rep so far would not finish before the deadline.
		deadline := time.Now().Add(budget)
		var reps []repResult
		var longest time.Duration
		for {
			start := time.Now()
			r, err := spawnRep(ctx, name, seed, modePlain)
			if err != nil {
				return err
			}
			reps = append(reps, r)
			longest = max(longest, time.Since(start))
			fmt.Fprintf(os.Stderr, "bench: %s rep %d: wall %.3f s, setup %.4f s, stolen %.1f%%\n", name, len(reps), r.WallS, r.SetupS, 100*r.StolenShare)
			if time.Now().Add(longest).After(deadline) {
				break
			}
		}
		extra, err := extraSetups(ctx, name, seed, len(reps))
		if err != nil {
			return err
		}
		s := summarize(name, reps, extra)
		s.print(os.Stdout)
		out.Attempted += s.attempted
		out.Failed += s.failed
		for _, m := range endToEnd {
			out.Metrics[m.Name] = contractValue{s.values[m.Name], m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	return json.NewEncoder(os.Stdout).Encode(out)
}

// extraSetups tops a workload's set-up samples up to minSetups with
// children that set up and exit: setup_s is a few milliseconds of exec,
// init and one T1 campaign, too jittery to take from a handful of reps.
func extraSetups(ctx context.Context, name string, seed uint64, have int) ([]float64, error) {
	var extra []float64
	for n := have; n < minSetups; n++ {
		r, err := spawnRep(ctx, name, seed, modeSetup)
		if err != nil {
			return nil, err
		}
		extra = append(extra, r.SetupS)
	}
	return extra, nil
}

// shardProbeInWorkDir runs the shard-count invariance probe in a
// scratch directory of its own.
func shardProbeInWorkDir(seed uint64) error {
	dir, err := workDir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return shardProbe(seed, dir)
}

// e2eSet runs one end-to-end set — every workload's reps, round-robin
// across the workloads — and summarizes each workload.
func e2eSet(ctx context.Context, seed uint64) ([]summary, error) {
	if err := shardProbeInWorkDir(seed); err != nil {
		return nil, err
	}
	reps := map[string][]repResult{}
	for round, ran := 0, true; ran; round++ {
		ran = false
		for _, w := range workloads {
			if round >= w.reps {
				continue
			}
			ran = true
			r, err := spawnRep(ctx, w.name, seed, modePlain)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d: wall %.3f s, stolen %.1f%%\n", w.name, round+1, w.reps, r.WallS, 100*r.StolenShare)
			reps[w.name] = append(reps[w.name], r)
		}
	}
	var out []summary
	for _, w := range workloads {
		extra, err := extraSetups(ctx, w.name, seed, len(reps[w.name]))
		if err != nil {
			return nil, err
		}
		out = append(out, summarize(w.name, reps[w.name], extra))
	}
	return out, nil
}

// tracedReps is how many untraced/spans rep pairs the traced set run by
// hand compares; a contract run has the budget for one.
const tracedReps = 3

// runSets is the harness run by hand: the end-to-end set, the traced
// set and the full-size rungs, or one of them.
func runSets(ctx context.Context, seed uint64, which string) error {
	switch which {
	case "all", "e2e", "traced", "rungs":
	default:
		return fmt.Errorf("unknown -set %q (e2e | traced | rungs | all)", which)
	}
	printHost(seed)
	failed := 0
	if which == "all" || which == "e2e" {
		sums, err := e2eSet(ctx, seed)
		if err != nil {
			return err
		}
		for i := range sums {
			sums[i].print(os.Stdout)
			failed += sums[i].failed
		}
	}
	if which == "all" || which == "traced" {
		for _, w := range workloads {
			t, err := traceWorkload(ctx, w.name, seed, tracedReps)
			if err != nil {
				return err
			}
			if err := t.report(os.Stdout, w.name+" — per-layer metrics (traced set)"); err != nil {
				return err
			}
			failed += t.failed
		}
	}
	if which == "all" || which == "rungs" {
		values := runRungs(fullRungs)
		if err := checkNames(values); err != nil {
			return err
		}
		printLayer(os.Stdout, "rungs — isolated drives of module functions on pinned fixtures (median of 5)", values)
	}
	if failed > 0 {
		return fmt.Errorf("%d operation(s) failed", failed)
	}
	return nil
}

// runSelfcheck runs two end-to-end sets of the same code back to back
// and holds every metric × workload pair to the benchmark's own bound:
// the instrument must agree with itself before it judges a change.
func runSelfcheck(ctx context.Context, seed uint64) error {
	printHost(seed)
	var sets [2][]summary
	for i := range sets {
		fmt.Fprintf(os.Stderr, "bench: selfcheck set %d of 2\n", i+1)
		s, err := e2eSet(ctx, seed)
		if err != nil {
			return err
		}
		sets[i] = s
	}
	var bad []string
	for w := range workloads {
		a, b := sets[0][w], sets[1][w]
		a.print(os.Stdout)
		b.print(os.Stdout)
		fmt.Printf("== %s — set 1 vs set 2\n", a.workload)
		fmt.Printf("  %-18s %14s %14s %9s %7s\n", "metric", "set 1", "set 2", "worse by", "bound")
		for _, m := range endToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			// How much worse set 2 reads, relative to set 1: higher for
			// a "lower is better" metric, lower for a "higher is better"
			// one. Same code on both sides, so better by more than the
			// bound is as much a disagreement as worse.
			rel := (vb - va) / va
			if m.Better == "higher" {
				rel = -rel
			}
			mark := ""
			if rel > m.Bound || -rel > m.Bound {
				mark = "  EXCEEDS BOUND"
				bad = append(bad, a.workload+"/"+m.Name)
			}
			fmt.Printf("  %-18s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", m.Name, va, vb, 100*rel, 100*m.Bound, mark)
		}
		for _, k := range exactCounts {
			if a.counts[k] != b.counts[k] {
				fmt.Printf("  %-36s %v != %v  NOT IDENTICAL\n", k, a.counts[k], b.counts[k])
				bad = append(bad, a.workload+"/"+k)
			}
		}
		if a.digest != b.digest {
			bad = append(bad, a.workload+"/digest")
		}
		if a.failed+b.failed > 0 {
			bad = append(bad, a.workload+"/failed_share")
		}
	}
	if len(bad) > 0 {
		return errors.New("selfcheck: the two sets disagree on " + strings.Join(bad, ", "))
	}
	fmt.Println("selfcheck: the two sets agree within every bound; exact counts and digests identical")
	return nil
}
