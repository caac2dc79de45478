package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSpec returns a spec whose single outcome is a pure function of
// its seed, so determinism tests can compare across worker counts
// without running real campaigns.
func fakeSpec(id string) Spec {
	return Spec{
		ID: id, Title: "fake " + id, Produces: []string{id},
		Run: func(seed uint64, sc Scale) ([]*Outcome, error) {
			return []*Outcome{{
				ID:       id,
				Title:    "fake " + id,
				Rendered: fmt.Sprintf("%s@%d\n", id, seed),
				Metrics:  map[string]float64{"seed_mod": float64(seed % 1000)},
			}}, nil
		},
	}
}

// stripElapsed zeroes the wall-clock fields so reports can be compared
// structurally.
func stripElapsed(r *Report) {
	for i := range r.Results {
		r.Results[i].Elapsed = 0
	}
}

func TestSeedForDerivation(t *testing.T) {
	if SeedFor(42, "network", 0) != SeedFor(42, "network", 0) {
		t.Fatal("SeedFor must be deterministic")
	}
	seen := map[uint64]string{}
	for _, spec := range []string{"network", "chain", "T2", "W1"} {
		for r := 0; r < 5; r++ {
			for _, base := range []uint64{0, 1, 42} {
				s := SeedFor(base, spec, r)
				key := fmt.Sprintf("%s/%d/%d", spec, r, base)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	specs := []Spec{fakeSpec("X1"), fakeSpec("X2"), fakeSpec("X3"), fakeSpec("X4")}
	workerCounts := []int{1, 4, 16}
	// Serialized (artifact-level) comparison: Spec.Run is a func and
	// never reflect.DeepEqual, but everything an artifact records must
	// be byte-identical across worker counts.
	var serialized []string
	for _, workers := range workerCounts {
		rep, err := Run(context.Background(), specs, RunnerConfig{Seed: 7, Scale: ScaleSmall, Repeats: 3, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		stripElapsed(rep)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		serialized = append(serialized, string(data))
	}
	for i := 1; i < len(serialized); i++ {
		if serialized[0] != serialized[i] {
			t.Fatalf("report diverged between parallel=1 and parallel=%d", workerCounts[i])
		}
	}
}

func TestRunnerAggregatesAcrossRepeats(t *testing.T) {
	spec := fakeSpec("X1")
	rep, err := Run(context.Background(), []Spec{spec}, RunnerConfig{Seed: 9, Repeats: 4, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Summaries) != 1 {
		t.Fatalf("summaries: %+v", rep.Summaries)
	}
	s := rep.Summaries[0]
	if s.OutcomeID != "X1" || s.Metric != "seed_mod" || s.N != 4 {
		t.Fatalf("summary: %+v", s)
	}
	var want float64
	for r := 0; r < 4; r++ {
		want += float64(SeedFor(9, "X1", r) % 1000)
	}
	want /= 4
	if math.Abs(s.Mean-want) > 1e-9 {
		t.Fatalf("mean %v, want %v", s.Mean, want)
	}
	if s.Min > s.Mean || s.Max < s.Mean || s.StdDev < 0 {
		t.Fatalf("inconsistent summary: %+v", s)
	}
}

func TestRunnerStreamsEveryResult(t *testing.T) {
	specs := []Spec{fakeSpec("X1"), fakeSpec("X2")}
	var mu sync.Mutex
	got := map[string]int{}
	_, err := Run(context.Background(), specs, RunnerConfig{Seed: 1, Repeats: 3, Parallel: 4,
		OnResult: func(r Result) {
			mu.Lock()
			got[r.Spec.ID]++
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if got["X1"] != 3 || got["X2"] != 3 {
		t.Fatalf("streamed counts: %v", got)
	}
}

func TestRunnerReportsFailuresWithoutAborting(t *testing.T) {
	bad := Spec{ID: "bad", Produces: []string{"bad"},
		Run: func(seed uint64, sc Scale) ([]*Outcome, error) {
			return nil, fmt.Errorf("boom")
		}}
	rep, err := Run(context.Background(), []Spec{bad, fakeSpec("X1")}, RunnerConfig{Seed: 1, Repeats: 2, Parallel: 2})
	if err == nil {
		t.Fatal("failed runs must surface an error")
	}
	if rep == nil {
		t.Fatal("report must survive failures")
	}
	okRuns, failed := 0, 0
	for _, r := range rep.Results {
		if r.Err != nil {
			failed++
		} else {
			okRuns++
		}
	}
	if failed != 2 || okRuns != 2 {
		t.Fatalf("failed=%d ok=%d", failed, okRuns)
	}
	// Aggregation covers only the successful runs.
	if len(rep.Summaries) != 1 || rep.Summaries[0].N != 2 {
		t.Fatalf("summaries: %+v", rep.Summaries)
	}
}

// TestRunnerContainsPanickingSpec: a spec that panics on a runner
// worker goroutine fails its own Result — value and stack in Err — and
// the rest of the campaign finishes.
func TestRunnerContainsPanickingSpec(t *testing.T) {
	bad := Spec{ID: "bad", Produces: []string{"bad"},
		Run: func(seed uint64, sc Scale) ([]*Outcome, error) { panic("kaboom") }}
	rep, err := Run(context.Background(), []Spec{fakeSpec("X1"), bad, fakeSpec("X2")}, RunnerConfig{Seed: 1, Parallel: 2})
	if err == nil || rep == nil {
		t.Fatalf("want a report and an error, got report=%v err=%v", rep != nil, err)
	}
	for _, r := range rep.Results {
		switch {
		case r.Spec.ID != "bad":
			if r.Err != nil || len(r.Outcomes) != 1 {
				t.Errorf("%s: err=%v outcomes=%d, want a clean result", r.Spec.ID, r.Err, len(r.Outcomes))
			}
		case r.Err == nil:
			t.Error("panicking spec reported no error")
		case !strings.Contains(r.Err.Error(), "kaboom") || !strings.Contains(r.Err.Error(), "TestRunnerContainsPanickingSpec"):
			t.Errorf("Err lacks the panic value or its stack: %v", r.Err)
		}
	}
}

func TestRenderOutcomesFallsBackPastFailedRepeat(t *testing.T) {
	// A spec whose repeat 0 fails must still render from its first
	// successful repeat (derived seeds differ per repeat, so a single
	// repeat can fail alone).
	flaky := Spec{ID: "flaky", Produces: []string{"flaky"},
		Run: func(seed uint64, sc Scale) ([]*Outcome, error) {
			if seed == SeedFor(3, "flaky", 0) {
				return nil, fmt.Errorf("repeat-0 failure")
			}
			return []*Outcome{{ID: "flaky", Title: "flaky", Rendered: "survived\n",
				Metrics: map[string]float64{"v": 1}}}, nil
		}}
	rep, err := Run(context.Background(), []Spec{flaky}, RunnerConfig{Seed: 3, Repeats: 2, Parallel: 1})
	if err == nil {
		t.Fatal("repeat-0 failure must surface")
	}
	out := rep.RenderOutcomes()
	if !strings.Contains(out, "survived") {
		t.Fatalf("first successful repeat not rendered:\n%s", out)
	}
	if strings.Count(out, "survived") != 1 {
		t.Fatalf("spec rendered more than once:\n%s", out)
	}
}

func TestEffectiveParallel(t *testing.T) {
	if got := EffectiveParallel(4, 3, 2, 0); got != 4 {
		t.Fatalf("explicit request: %d", got)
	}
	if got := EffectiveParallel(100, 3, 2, 0); got != 6 {
		t.Fatalf("clamp to job count: %d", got)
	}
	if got := EffectiveParallel(0, 1000, 1, 0); got < 1 {
		t.Fatalf("default must be positive: %d", got)
	}
	if got := EffectiveParallel(8, 2, 0, 0); got != 2 {
		t.Fatalf("repeats <= 0 means 1: %d", got)
	}
}

func TestRunnerRejectsEmptySelection(t *testing.T) {
	if _, err := Run(context.Background(), nil, RunnerConfig{Seed: 1}); err == nil {
		t.Fatal("empty spec list must fail")
	}
}

func TestRunnerActuallyRunsConcurrently(t *testing.T) {
	// Four 50 ms specs at parallel=4 must overlap: well under the
	// 200 ms serial time.
	var inFlight, peak atomic.Int32
	slow := func(id string) Spec {
		return Spec{ID: id, Produces: []string{id},
			Run: func(seed uint64, sc Scale) ([]*Outcome, error) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(50 * time.Millisecond)
				inFlight.Add(-1)
				return []*Outcome{{ID: id, Metrics: map[string]float64{"v": 1}}}, nil
			}}
	}
	specs := []Spec{slow("S1x"), slow("S2x"), slow("S3x"), slow("S4x")}
	if _, err := Run(context.Background(), specs, RunnerConfig{Seed: 1, Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	// Peak in-flight count proves overlap without a wall-clock bound
	// (which would flake on loaded CI runners).
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d", peak.Load())
	}
}

// TestRealSpecByteIdenticalAcrossParallelism runs a real (cheap)
// campaign spec at two worker counts and requires identical artifacts
// — the acceptance bar for cmd/ethrepro -parallel.
func TestRealSpecByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaigns are too slow for -short")
	}
	specs, err := Select([]string{"network", "T2"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		rep, err := Run(context.Background(), specs, RunnerConfig{Seed: 42, Scale: ScaleSmall, Repeats: 2, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		stripElapsed(rep)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if run(1) != run(4) {
		t.Fatal("real campaign diverged between parallel=1 and parallel=4")
	}
}

func TestEffectiveParallelBudget(t *testing.T) {
	// The budget clamps after the job-count clamp: a server splitting
	// the machine across campaigns caps each one's workers.
	if got := EffectiveParallel(8, 10, 1, 2); got != 2 {
		t.Fatalf("budget clamp: %d", got)
	}
	if got := EffectiveParallel(2, 10, 1, 4); got != 2 {
		t.Fatalf("budget must not raise the request: %d", got)
	}
	if got := EffectiveParallel(8, 10, 1, 0); got != 8 {
		t.Fatalf("zero budget means unbudgeted: %d", got)
	}
	if got := EffectiveParallel(0, 1, 1, 1); got != 1 {
		t.Fatalf("budget floor: %d", got)
	}
}

func TestRunnerBudgetCapsConcurrency(t *testing.T) {
	var inFlight, peak atomic.Int32
	slow := func(id string) Spec {
		return Spec{ID: id, Produces: []string{id},
			Run: func(seed uint64, sc Scale) ([]*Outcome, error) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				inFlight.Add(-1)
				return []*Outcome{{ID: id, Metrics: map[string]float64{"v": 1}}}, nil
			}}
	}
	specs := []Spec{slow("B1"), slow("B2"), slow("B3"), slow("B4")}
	if _, err := Run(context.Background(), specs, RunnerConfig{Seed: 1, Parallel: 4, Budget: 1}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("budget=1 but peak concurrency was %d", got)
	}
}

func TestRunnerStreamsStarts(t *testing.T) {
	specs := []Spec{fakeSpec("X1"), fakeSpec("X2")}
	var mu sync.Mutex
	starts, results := map[string]int{}, 0
	_, err := Run(context.Background(), specs, RunnerConfig{Seed: 1, Repeats: 2, Parallel: 4,
		OnStart: func(r Result) {
			if r.Outcomes != nil || r.Err != nil || r.Elapsed != 0 {
				t.Errorf("OnStart result carries completion fields: %+v", r)
			}
			if r.Seed != SeedFor(1, r.Spec.ID, r.Repeat) {
				t.Errorf("OnStart seed mismatch: %+v", r)
			}
			mu.Lock()
			starts[r.Spec.ID]++
			mu.Unlock()
		},
		OnResult: func(r Result) {
			mu.Lock()
			results++
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if starts["X1"] != 2 || starts["X2"] != 2 || results != 4 {
		t.Fatalf("starts=%v results=%d", starts, results)
	}
}

// TestRunnerCancellationDrainsCleanly: cancelling mid-campaign stops
// dispatch, completes in-flight runs, and marks everything
// undispatched with the context error — the Report stays rectangular.
func TestRunnerCancellationDrainsCleanly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int32
	blocking := func(id string) Spec {
		return Spec{ID: id, Produces: []string{id},
			Run: func(seed uint64, sc Scale) ([]*Outcome, error) {
				started.Add(1)
				<-release
				return []*Outcome{{ID: id, Metrics: map[string]float64{"v": 1}}}, nil
			}}
	}
	specs := []Spec{blocking("C1"), blocking("C2"), blocking("C3"), blocking("C4")}
	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		defer close(done)
		rep, runErr = Run(ctx, specs, RunnerConfig{Seed: 5, Repeats: 2, Parallel: 2})
	}()
	// Wait for both workers to be mid-run, then cancel and unblock.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done

	if runErr == nil || !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancelled campaign error: %v", runErr)
	}
	if rep == nil || len(rep.Results) != 8 {
		t.Fatalf("report must stay rectangular: %+v", rep)
	}
	completed, skipped := 0, 0
	for _, r := range rep.Results {
		switch {
		case r.Err == nil && len(r.Outcomes) == 1:
			completed++
		case errors.Is(r.Err, context.Canceled):
			if r.Seed != SeedFor(5, r.Spec.ID, r.Repeat) {
				t.Errorf("skipped run lost its derived seed: %+v", r)
			}
			skipped++
		default:
			t.Errorf("unexpected result: %+v", r)
		}
	}
	// The two in-flight runs (plus up to one more dispatched into the
	// unbuffered jobs channel per worker) complete; the rest skip.
	if completed < 2 || skipped == 0 || completed+skipped != 8 {
		t.Fatalf("completed=%d skipped=%d", completed, skipped)
	}
	// Aggregation covers only completed runs.
	if len(rep.Summaries) == 0 {
		t.Fatal("completed runs must still aggregate")
	}
}

// TestRunnerPreCancelledContext: an already-cancelled context runs
// nothing but still returns a fully-marked report.
func TestRunnerPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, []Spec{fakeSpec("X1")}, RunnerConfig{Seed: 1, Repeats: 3})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error: %v", err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results: %d", len(rep.Results))
	}
	for _, r := range rep.Results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result not marked cancelled: %+v", r)
		}
	}
}
