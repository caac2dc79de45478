package experiments_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// The observability determinism gate: enabling engine tracing and run
// telemetry must not change a single artifact byte or the Merkle
// root. Tracing reads engine counters and wall clocks only — if it
// ever consumes RNG, reorders events or leaks into an artifact, these
// tests fail.

// obsGoldenSpecs keeps this gate fast while covering the three engine
// dispatch classes: T1/network (funcs, calls, timers via the overlay
// and mining), D1 (fault opcodes).
var obsGoldenSpecs = []string{"T1", "network", "D1"}

func runGoldenSpecs(t *testing.T, dir string, parallel int) {
	t.Helper()
	specs, err := experiments.Select(obsGoldenSpecs)
	if err != nil {
		t.Fatal(err)
	}
	runGolden(t, specs, dir, parallel, nil)
}

// TestGoldenTracingInvariance runs the same campaign with collection
// off, with telemetry on, and with full tracing on — at parallel 1
// and 8 — and asserts every run directory is byte-identical. The
// telemetry/tracing runs do not write telemetry.json here (that is
// the caller's opt-in), so the comparison is exact.
func TestGoldenTracingInvariance(t *testing.T) {
	defer obs.Default.Disable()

	base := t.TempDir()
	plain := filepath.Join(base, "plain")
	obs.Default.Disable()
	runGoldenSpecs(t, plain, 1)

	for _, tc := range []struct {
		name    string
		enable  func()
		workers int
	}{
		{"telemetry-p1", func() { obs.Default.EnableTelemetry() }, 1},
		{"telemetry-p8", func() { obs.Default.EnableTelemetry() }, 8},
		{"tracing-p1", func() { obs.Default.EnableTracing(1 << 10) }, 1},
		{"tracing-p8", func() { obs.Default.EnableTracing(1 << 10) }, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer obs.Default.Disable()
			tc.enable()
			dir := filepath.Join(base, tc.name)
			runGoldenSpecs(t, dir, tc.workers)
			assertDirsIdentical(t, plain, dir)
		})
	}
}

// TestTelemetryJoinsReportBySeed runs a tiny traced campaign and
// checks the collector data lands on the right (spec, repeat) rows.
func TestTelemetryJoinsReportBySeed(t *testing.T) {
	defer obs.Default.Disable()
	obs.Default.EnableTracing(1 << 10)

	// T2 and D1 both execute real campaigns; a static spec like T1
	// would (correctly) produce an elapsed-only row.
	specs, err := experiments.Select([]string{"T2", "D1"})
	if err != nil {
		t.Fatal(err)
	}
	campaign := func(parallel int) (*experiments.Report, *experiments.Telemetry) {
		report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
			Seed: goldenSeed, Scale: experiments.ScaleSmall, Repeats: 2, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		taken := obs.Default.Take(experiments.ReportSeeds(report))
		return report, experiments.BuildTelemetry(report, taken)
	}
	report, tel := campaign(4)

	// The engine counters are pure functions of the schedule: a second
	// campaign at another worker count reproduces them exactly.
	_, again := campaign(1)
	for i, row := range tel.Runs {
		b := again.Runs[i]
		if row.Events != b.Events || row.Scheduled != b.Scheduled || row.FarScheduled != b.FarScheduled ||
			row.PeakQueue != b.PeakQueue || row.Slots != b.Slots || row.SimMS != b.SimMS {
			t.Errorf("row %s/%d engine counters differ between campaigns:\n %+v\n %+v", row.Spec, row.Repeat, row, b)
		}
		if row.FarScheduled == 0 || row.FarScheduled >= row.Scheduled {
			t.Errorf("row %s/%d far_scheduled = %d of %d scheduled", row.Spec, row.Repeat, row.FarScheduled, row.Scheduled)
		}
	}

	if len(tel.Runs) != len(report.Results) {
		t.Fatalf("telemetry rows = %d, want %d", len(tel.Runs), len(report.Results))
	}
	for i, row := range tel.Runs {
		res := report.Results[i]
		if row.Spec != res.Spec.ID || row.Repeat != res.Repeat || row.Seed != res.Seed {
			t.Fatalf("row %d misjoined: %+v vs result %s/%d", i, row, res.Spec.ID, res.Repeat)
		}
		if row.Engines == 0 || row.Events == 0 {
			t.Errorf("row %s/%d has no engine data: %+v", row.Spec, row.Repeat, row)
		}
		if row.PeakQueue == 0 {
			t.Errorf("row %s/%d has no queue high-water", row.Spec, row.Repeat)
		}
		if len(row.Kinds) == 0 {
			t.Errorf("row %s/%d has no kind profile despite tracing", row.Spec, row.Repeat)
		}
	}
	// The collector was drained.
	if again := obs.Default.Take(experiments.ReportSeeds(report)); len(again) != 0 {
		t.Fatalf("second Take returned %d runs", len(again))
	}

	// Round-trip through a store and the renderer.
	st := store.NewMem()
	if err := experiments.WriteTelemetry(st, tel); err != nil {
		t.Fatal(err)
	}
	back, err := experiments.ReadTelemetry(st)
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != experiments.TelemetrySchemaVersion || len(back.Runs) != len(tel.Runs) {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if out := experiments.RenderTelemetry(back); out == "" {
		t.Fatal("empty telemetry rendering")
	}
}

// TestTelemetrySealsIntoManifest writes a run directory with
// telemetry enabled, seals it, and checks telemetry.json is digest-
// covered like any other artifact.
func TestTelemetrySealsIntoManifest(t *testing.T) {
	defer obs.Default.Disable()
	obs.Default.EnableTelemetry()

	specs, err := experiments.Select([]string{"T1"})
	if err != nil {
		t.Fatal(err)
	}
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed: goldenSeed, Scale: experiments.ScaleSmall,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewFS(t.TempDir())
	if err := experiments.WriteArtifacts(st, report); err != nil {
		t.Fatal(err)
	}
	tel := experiments.BuildTelemetry(report, obs.Default.Take(experiments.ReportSeeds(report)))
	if err := experiments.WriteTelemetry(st, tel); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteManifest(st, report); err != nil {
		t.Fatal(err)
	}
	if err := store.Verify(st); err != nil {
		t.Fatalf("sealed telemetry run dir fails verification: %v", err)
	}
	m, err := experiments.ReadManifest(st)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range m.Files {
		if f.Path == experiments.TelemetryFile {
			found = true
		}
	}
	if !found {
		t.Fatal("telemetry.json not covered by the sealed manifest")
	}
}
