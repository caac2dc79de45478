package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// RunnerConfig parameterizes a campaign of experiments.
type RunnerConfig struct {
	// Seed is the campaign base seed; every (spec, repeat) derives its
	// own seed from it via SeedFor.
	Seed uint64
	// Scale sizes each experiment.
	Scale Scale
	// Repeats is the number of independent repeats per spec (<= 0
	// means 1). Repeats feed the cross-repeat mean/std aggregation.
	Repeats int
	// Parallel caps concurrent experiments (<= 0 means GOMAXPROCS).
	Parallel int
	// Budget is an outer worker cap applied after Parallel resolves —
	// the campaign's share of the machine when several campaigns run
	// in one process (the experiment server divides GOMAXPROCS across
	// its concurrent campaigns). <= 0 means unbudgeted.
	Budget int
	// OnStart, when non-nil, streams each run as a worker picks it up
	// (dispatch order — costliest spec first, see Run — from a single
	// goroutine, serialized with OnResult). The Result carries
	// Spec/Repeat/Seed only.
	OnStart func(Result)
	// OnResult, when non-nil, streams each result as it completes
	// (completion order, from a single goroutine). Use for progress
	// reporting; the returned Report is always in deterministic order.
	OnResult func(Result)
}

// Result is one completed (spec, repeat) execution.
type Result struct {
	// Spec identifies the experiment.
	Spec Spec
	// Repeat is the 0-based repeat index.
	Repeat int
	// Seed is the derived per-run seed.
	Seed uint64
	// Outcomes are the artifacts the run produced (nil on error).
	Outcomes []*Outcome
	// Err is the run's failure, if any. Runs skipped because the
	// campaign's context was cancelled carry the context error.
	Err error
	// Start is when the run started, as an offset from the campaign's
	// start; Elapsed is the run's wall-clock time. Both are zero for a
	// run that never started.
	Start   time.Duration
	Elapsed time.Duration
}

// MetricSummary aggregates one outcome metric across repeats.
type MetricSummary struct {
	OutcomeID string
	Metric    string
	N         int
	Mean      float64
	StdDev    float64
	Min       float64
	Max       float64
}

// Report is a completed campaign: every result plus the cross-repeat
// aggregation. Results are ordered by (registration order, repeat)
// regardless of completion order, so rendering a Report is
// deterministic at any parallelism.
type Report struct {
	Seed    uint64
	Scale   Scale
	Repeats int
	Results []Result
	// Summaries holds per-metric mean/std across repeats, ordered by
	// (outcome appearance order, metric name).
	Summaries []MetricSummary
}

// SeedFor derives the seed for one (spec, repeat) run. The derivation
// depends only on the base seed, the spec ID and the repeat index —
// never on worker count, scheduling or sibling specs — which is what
// makes campaign results byte-identical at any parallelism. Distinct
// inputs are scattered by an FNV-1a absorb followed by two splitmix64
// finalizer rounds.
func SeedFor(base uint64, specID string, repeat int) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	mix(base)
	for i := 0; i < len(specID); i++ {
		h ^= uint64(specID[i])
		h *= fnvPrime
	}
	mix(uint64(repeat))
	for i := 0; i < 2; i++ {
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// EffectiveParallel resolves a requested Parallel value to the worker
// count Run actually uses for nSpecs specs at the given repeats:
// non-positive requests mean GOMAXPROCS, clamped to the job count and
// then to the budget (<= 0 means unbudgeted). The budget clamp is
// what keeps N concurrently queued campaigns from oversubscribing one
// process: each campaign resolves against its share, not the whole
// machine.
func EffectiveParallel(requested, nSpecs, repeats, budget int) int {
	if repeats <= 0 {
		repeats = 1
	}
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n := nSpecs * repeats; w > n {
		w = n
	}
	if budget > 0 && w > budget {
		w = budget
	}
	if w < 1 {
		w = 1
	}
	return w
}

// progress is one lifecycle notification flowing from the workers to
// the single callback-serializing consumer. Results travel by value,
// so callbacks never race the workers' writes into the results slice.
type progress struct {
	result Result
	done   bool
}

// Run executes the given specs as a parallel campaign: every (spec,
// repeat) pair is an independent unit fanned across a worker pool.
// Failures don't abort the campaign; they are reported per-result and
// summarized in the returned error.
//
// Runs are handed to workers longest first (dispatchOrder), which
// moves only the callbacks' order and the wall time: results stay in
// the given order and every seed is SeedFor's.
//
// Cancelling ctx drains the campaign cleanly: no new runs are
// dispatched, in-flight runs complete, and the returned Report marks
// every undispatched run with the context error — so a cancelled
// campaign still renders and aggregates whatever finished. Run
// returns the context error (wrapped) in that case.
func Run(ctx context.Context, specs []Spec, cfg RunnerConfig) (*Report, error) {
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	workers := EffectiveParallel(cfg.Parallel, len(specs), repeats, cfg.Budget)
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: no specs selected")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	type job struct {
		spec    Spec
		repeat  int
		ordinal int
	}
	jobs := make(chan job)
	results := make([]Result, len(specs)*repeats)
	stream := make(chan progress, 2*len(results))

	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				seed := SeedFor(cfg.Seed, j.spec.ID, j.repeat)
				stream <- progress{result: Result{Spec: j.spec, Repeat: j.repeat, Seed: seed}}
				start := time.Now()
				// Err keeps the raw cause: Result already carries
				// Spec/Repeat/Seed, so printers add that context once.
				outs, err := runSpec(j.spec, seed, cfg.Scale)
				results[j.ordinal] = Result{
					Spec:     j.spec,
					Repeat:   j.repeat,
					Seed:     seed,
					Outcomes: outs,
					Err:      err,
					Start:    start.Sub(t0),
					Elapsed:  time.Since(start),
				}
				stream <- progress{result: results[j.ordinal], done: true}
			}
		}()
	}

	// Single consumer keeps OnStart/OnResult calls serialized.
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for p := range stream {
			switch {
			case p.done && cfg.OnResult != nil:
				cfg.OnResult(p.result)
			case !p.done && cfg.OnStart != nil:
				cfg.OnStart(p.result)
			}
		}
	}()

	// Dispatch until done or cancelled. On cancellation the in-flight
	// runs drain; everything not yet handed to a worker is marked
	// below.
	sent := make([]bool, len(results))
	dispatched := 0
dispatch:
	for _, i := range dispatchOrder(specs) {
		for r := 0; r < repeats; r++ {
			// Checked before the select: when a worker is ready AND the
			// context is done, select would pick a branch at random —
			// this keeps post-cancel dispatch bounded at one job.
			if ctx.Err() != nil {
				break dispatch
			}
			ord := i*repeats + r
			select {
			case jobs <- job{spec: specs[i], repeat: r, ordinal: ord}:
				sent[ord] = true
				dispatched++
			case <-ctx.Done():
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	close(stream)
	consumer.Wait()

	// Mark undispatched runs so the Report stays rectangular: one
	// Result per (spec, repeat) at any cancellation point.
	for ord, ok := range sent {
		if ok {
			continue
		}
		s := specs[ord/repeats]
		r := ord % repeats
		results[ord] = Result{
			Spec:   s,
			Repeat: r,
			Seed:   SeedFor(cfg.Seed, s.ID, r),
			Err:    context.Cause(ctx),
		}
	}

	report := &Report{
		Seed:    cfg.Seed,
		Scale:   cfg.Scale,
		Repeats: repeats,
		Results: results,
	}
	report.Summaries = aggregate(results)

	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("experiments: campaign cancelled after %d/%d runs: %w",
			dispatched, len(results), context.Cause(ctx))
	}
	var failed []string
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, fmt.Sprintf("%s (repeat %d, seed %d): %v",
				r.Spec.ID, r.Repeat, r.Seed, r.Err))
		}
	}
	if len(failed) > 0 {
		return report, fmt.Errorf("experiments: %d/%d runs failed: %s",
			len(failed), len(results), failed[0])
	}
	return report, nil
}

// dispatchOrder returns the indices of specs in the order Run hands
// their runs to workers: by declared Cost, costliest first — Graham's
// longest-processing-time rule, which keeps a long run from starting
// last and running alone — with ties in the given order. A spec without
// a declared cost goes ahead of all of them, in the given order: its
// cost is unknown, and starting a long run last is the one mistake the
// rule exists to avoid.
func dispatchOrder(specs []Spec) []int {
	rank := func(s Spec) uint64 {
		if s.Cost == 0 {
			return math.MaxUint64
		}
		return s.Cost
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(rank(specs[b]), rank(specs[a]))
	})
	return order
}

// runSpec is spec.Run with a panic turned into the run's error, value
// and stack included: one bad run fails one Result, and the campaign —
// under ethserve, every tenant's campaign — carries on.
func runSpec(s Spec, seed uint64, scale Scale) (outs []*Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	return s.Run(seed, scale)
}

// aggregate folds every successful result into per-(outcome, metric)
// summaries, ordered by first appearance of the outcome and metric
// name within it.
func aggregate(results []Result) []MetricSummary {
	type key struct{ outcome, metric string }
	accs := map[key]*stats.Accumulator{}
	var outcomeOrder []string
	seenOutcome := map[string]bool{}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		for _, o := range r.Outcomes {
			if !seenOutcome[o.ID] {
				seenOutcome[o.ID] = true
				outcomeOrder = append(outcomeOrder, o.ID)
			}
			for m, v := range o.Metrics {
				k := key{o.ID, m}
				if accs[k] == nil {
					accs[k] = &stats.Accumulator{}
				}
				accs[k].Add(v)
			}
		}
	}
	var out []MetricSummary
	for _, oid := range outcomeOrder {
		var metrics []string
		for k := range accs {
			if k.outcome == oid {
				metrics = append(metrics, k.metric)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			a := accs[key{oid, m}]
			out = append(out, MetricSummary{
				OutcomeID: oid, Metric: m,
				N: a.N(), Mean: a.Mean(), StdDev: a.StdDev(),
				Min: a.Min(), Max: a.Max(),
			})
		}
	}
	return out
}

// RenderOutcomes renders the paper-style tables from each spec's
// first successful repeat, in registration order — the shared body of
// ethrepro's stdout, rendered.txt and the examples. Results are
// ordered (spec, repeat), so scanning in order finds each spec's
// earliest successful run even when repeat 0 failed.
func (r *Report) RenderOutcomes() string {
	var out string
	rendered := map[string]bool{}
	for _, res := range r.Results {
		if res.Err != nil || rendered[res.Spec.ID] {
			continue
		}
		rendered[res.Spec.ID] = true
		for _, o := range res.Outcomes {
			out += fmt.Sprintf("== %s: %s ==\n%s\n", o.ID, o.Title, o.Rendered)
		}
	}
	return out
}

// RenderSummary renders the cross-repeat aggregation as a fixed-width
// table (the ethrepro campaign footer).
func (r *Report) RenderSummary() string {
	if len(r.Summaries) == 0 {
		return "no successful runs\n"
	}
	out := fmt.Sprintf("Campaign summary — seed %d, scale %s, %d repeat(s)\n",
		r.Seed, r.Scale, r.Repeats)
	out += fmt.Sprintf("  %-4s %-24s %4s %14s %12s %14s %14s\n",
		"id", "metric", "n", "mean", "std", "min", "max")
	for _, s := range r.Summaries {
		out += fmt.Sprintf("  %-4s %-24s %4d %14.4f %12.4f %14.4f %14.4f\n",
			s.OutcomeID, s.Metric, s.N, s.Mean, s.StdDev, s.Min, s.Max)
	}
	return out
}
