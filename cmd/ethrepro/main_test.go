package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestListRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"network", "F1,F2,F3", "chain", "W1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("registry listing missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSelectedExperiments(t *testing.T) {
	// T1 is static and instant.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "small", "-only", "T1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Fatalf("missing Table I:\n%s", out.String())
	}
	if testing.Short() {
		return
	}
	// F2 resolves to the shared network spec and runs one campaign.
	out.Reset()
	if err := run(context.Background(), []string{"-scale", "small", "-only", "F2", "-seed", "3"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 3"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("network spec output missing %q", want)
		}
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run1")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-only", "T1", "-repeats", "2", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"manifest.json", "outcomes.json", "rendered.txt",
		filepath.Join("csv", "outcomes.csv"), filepath.Join("csv", "summary.csv")} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}
	if !strings.Contains(out.String(), "Campaign summary") {
		t.Fatalf("repeats > 1 must print the summary:\n%s", out.String())
	}
}

func TestRunWritesTelemetryAndTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	trace := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	// T2 runs a real campaign, so the trace and telemetry carry engine
	// data.
	if err := run(context.Background(), []string{"-only", "T2", "-out", dir, "-trace", trace}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	tel, err := os.ReadFile(filepath.Join(dir, "telemetry.json"))
	if err != nil {
		t.Fatalf("telemetry.json not written: %v", err)
	}
	for _, want := range []string{`"events_per_sec"`, `"peak_queue"`, `"kinds"`} {
		if !strings.Contains(string(tel), want) {
			t.Fatalf("telemetry.json missing %s:\n%s", want, tel)
		}
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !strings.Contains(string(tr), `"traceEvents"`) || !strings.Contains(string(tr), "p2p.deliver") {
		t.Fatalf("trace missing expected content (%d bytes)", len(tr))
	}

	// -telemetry=false on a reused directory removes the stale file.
	out.Reset()
	if err := run(context.Background(), []string{"-only", "T1", "-out", dir, "-telemetry=false"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "telemetry.json")); err == nil {
		t.Fatal("stale telemetry.json survived a -telemetry=false rerun")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(context.Background(), []string{"-scale", "gigantic"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad scale must fail")
	}
	var usage strings.Builder
	if err := run(context.Background(), []string{"-badflag"}, io.Discard, &usage); err == nil {
		t.Fatal("bad flag must fail")
	}
	if want := "small|medium|paper|stress|stress100k"; !strings.Contains(usage.String(), want) {
		t.Errorf("-scale help does not list %s:\n%s", want, usage.String())
	}
	if err := run(context.Background(), []string{"-only", "NOPE"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// writeScenario drops a scenario document into a temp file.
func writeScenario(t *testing.T, name, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioListAndRun(t *testing.T) {
	path := writeScenario(t, "cli-sweep", `{
	  "name": "cli-sweep",
	  "mode": "chain",
	  "chain": {"blocks": 200, "inter_block_ms": 13300},
	  "outputs": ["forks"],
	  "repeats": 2,
	  "sweep": {"axes": [{"field": "chain.inter_block_ms", "values": [9000, 13300]}]}
	}`)

	// -list shows the compiled variants alongside the built-ins.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", path, "-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"network", "cli-sweep@inter_block_ms=9000", "cli-sweep@inter_block_ms=13300"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("scenario listing missing %q:\n%s", want, out.String())
		}
	}

	// -scenario without -only runs only the variants; the scenario's
	// repeats suggestion applies; the run dir embeds the scenario.
	dir := filepath.Join(t.TempDir(), "run")
	out.Reset()
	if err := run(context.Background(), []string{"-scenario", path, "-scale", "small", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "specs=2") {
		t.Fatalf("expected only the 2 variants selected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "repeats=2") {
		t.Fatalf("scenario repeats suggestion not applied:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "scenario.json")); err != nil {
		t.Fatalf("run dir missing scenario artifact: %v", err)
	}

	// Reusing the run directory without -scenario must not leave the
	// stale embedding behind to mislabel the new campaign.
	out.Reset()
	if err := run(context.Background(), []string{"-only", "T1", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "scenario.json")); err == nil {
		t.Fatal("stale scenario.json survived a non-scenario rerun")
	}
}

// TestScenarioExcludedByOnly: when -only selects no scenario variant,
// the scenario must leave no trace on the run — no repeats suggestion,
// no embedded scenario.json.
func TestScenarioExcludedByOnly(t *testing.T) {
	path := writeScenario(t, "excluded", `{
	  "name": "excluded",
	  "mode": "chain",
	  "chain": {"blocks": 100},
	  "repeats": 3
	}`)
	dir := filepath.Join(t.TempDir(), "run")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", path, "-only", "T1", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "repeats=1") {
		t.Fatalf("excluded scenario's repeats suggestion applied:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "scenario.json")); err == nil {
		t.Fatal("run dir embeds a scenario that did not run")
	}
}

func TestScenarioRejectsBadFile(t *testing.T) {
	if err := run(context.Background(), []string{"-scenario", "no-such-file.json", "-list"}, io.Discard, io.Discard); err == nil {
		t.Fatal("missing scenario file must fail")
	}
	path := writeScenario(t, "bad", `{"name": "bad", "mode": "chain", "chain": {"blocks": 0}}`)
	if err := run(context.Background(), []string{"-scenario", path, "-list"}, io.Discard, io.Discard); err == nil {
		t.Fatal("invalid scenario must fail")
	}
	// A scenario name colliding with a built-in spec is rejected.
	path = writeScenario(t, "collide", `{"name": "network", "mode": "chain", "chain": {"blocks": 10}}`)
	if err := run(context.Background(), []string{"-scenario", path, "-list"}, io.Discard, io.Discard); err == nil {
		t.Fatal("registry collision must fail")
	}
}

// runInto runs the CLI into a fresh run directory (no telemetry, so the
// directory is a pure function of the flags) and returns its files.
func runInto(t *testing.T, args ...string) map[string]string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	args = append(args, "-only", "T2", "-seed", "5", "-telemetry=false", "-out", dir)
	if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestShardsFlagScopedToTheRun: -shards reaches the campaigns through
// ETHREPRO_SHARDS, and run is re-entrant, so the variable must be back
// the way it was found when run returns — or every later call in the
// process silently joins the sharded artifact family.
func TestShardsFlagScopedToTheRun(t *testing.T) {
	t.Setenv("ETHREPRO_SHARDS", "") // restore the caller's value afterwards
	os.Unsetenv("ETHREPRO_SHARDS")

	oneLane := runInto(t)
	two := runInto(t, "-shards", "2")
	if v, had := os.LookupEnv("ETHREPRO_SHARDS"); had {
		t.Fatalf("-shards 2 left ETHREPRO_SHARDS=%q behind", v)
	}
	six := runInto(t, "-shards", "6")
	if !reflect.DeepEqual(two, six) {
		t.Error("run directories differ between -shards 2 and -shards 6")
	}
	if two["outcomes.json"] == oneLane["outcomes.json"] {
		t.Fatal("sharded and one-lane outcomes coincide; the test cannot tell the families apart")
	}
	if after := runInto(t); !reflect.DeepEqual(after, oneLane) {
		t.Error("a run after -shards is not back in the one-lane family")
	}

	// A value the caller exported survives a -shards run too.
	os.Setenv("ETHREPRO_SHARDS", "6")
	if viaEnv := runInto(t); !reflect.DeepEqual(viaEnv, six) {
		t.Error("ETHREPRO_SHARDS=6 and -shards 6 disagree")
	}
	runInto(t, "-shards", "2")
	if v := os.Getenv("ETHREPRO_SHARDS"); v != "6" {
		t.Fatalf("-shards 2 replaced the caller's ETHREPRO_SHARDS=6 with %q", v)
	}

	// A request that is not a worker count fails naming the value; it
	// does not quietly run the one-lane family.
	err := run(context.Background(), []string{"-shards", "-3", "-only", "T1"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-shards -3") {
		t.Errorf("-shards -3: %v, want an error naming the value", err)
	}
	os.Setenv("ETHREPRO_SHARDS", "two")
	err = run(context.Background(), []string{"-only", "T2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `ETHREPRO_SHARDS="two"`) {
		t.Errorf("ETHREPRO_SHARDS=two: %v, want an error naming the variable and value", err)
	}
}
