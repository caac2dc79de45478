package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/txgen"
)

// datasetConfig is a small campaign with a transaction workload (so
// its block records carry tx links) and a 25-peer vantage beside the
// paper's four.
func datasetConfig() core.CampaignConfig {
	cfg := core.DefaultCampaignConfig(9)
	cfg.NetworkNodes = 120
	cfg.Blocks = 60
	cfg.Measurement = append(core.PaperMeasurementSpecs(30),
		core.MeasurementSpec{Name: "WE-default", Region: cfg.Measurement[2].Region, Peers: 25})
	wl := txgen.DefaultConfig()
	wl.Senders = 50
	wl.MeanInterArrival = 1000
	cfg.Workload = &wl
	return cfg
}

// writeDataset runs the campaign and writes its logs like ethmeasure
// would. Without txLinks it strips every block record's tx hash list,
// the shape of an outside log that never recorded them.
func writeDataset(t *testing.T, dir string, cfg core.CampaignConfig, txLinks bool) {
	t.Helper()
	res, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range res.Nodes {
		records := node.Records()
		if !txLinks {
			records = append([]measure.Record(nil), records...)
			for i := range records {
				records[i].TxHashes = nil
			}
		}
		f, err := os.Create(filepath.Join(dir, node.Name()+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if err := measure.WriteJSONL(f, records); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnalyzeDataset pins ethanalyze -in to the output table: after
// the loaded lines, it prints exactly the Rendered text
// experiments.CampaignOutputs gives for the campaign that wrote the
// dataset, vantages sorted, F1 … F7 in table order (Table II on the
// first vantage). Without tx links F4 and F5 print unavailable and
// every other row still prints.
func TestAnalyzeDataset(t *testing.T) {
	for _, txLinks := range []bool{true, false} {
		t.Run(fmt.Sprintf("txlinks=%v", txLinks), func(t *testing.T) {
			cfg := datasetConfig()
			dir := t.TempDir()
			writeDataset(t, dir, cfg, txLinks)
			var vantages []string
			for _, m := range cfg.Measurement {
				vantages = append(vantages, m.Name)
			}
			sort.Strings(vantages)
			text, err := capture(t, []string{"-in", dir, "-redundancy-node", vantages[0]})
			if err != nil {
				t.Fatal(err)
			}

			names := []string{"propagation", "first_observation", "pool_first_observation", "redundancy",
				"empty_blocks", "forks", "one_miner_forks", "sequences"}
			if txLinks {
				names = append(names, "commit_times", "reordering")
			}
			outs, err := experiments.CampaignOutputs(cfg, vantages, names)
			if err != nil {
				t.Fatal(err)
			}
			rendered := map[string]string{}
			for _, o := range outs {
				rendered[o.ID] = o.Rendered
			}
			var want strings.Builder
			for _, id := range []string{"F1", "F2", "F3", "T2", "F4", "F5", "F6", "T3", "S1", "F7"} {
				if r, ok := rendered[id]; ok {
					want.WriteString(r + "\n")
				} else {
					fmt.Fprintf(&want, "%s unavailable: analysis: dataset has no tx-to-block links (record the dataset with ethmeasure -txrate > 0)\n", id)
				}
			}
			got := text
			for range vantages {
				line, rest, _ := strings.Cut(got, "\n")
				if !strings.HasPrefix(line, "loaded ") {
					t.Fatalf("want %d loaded lines first, got %q", len(vantages), line)
				}
				got = rest
			}
			if got != want.String() {
				t.Fatalf("ethanalyze -in differs from the output table\n got:\n%s\nwant:\n%s", got, want.String())
			}
		})
	}
}

func TestAnalyzeRunDirectory(t *testing.T) {
	// Build a campaign run directory like ethrepro -out would (T1 is
	// static, so this is instant) and summarize it.
	specs, err := experiments.Select([]string{"T1"})
	if err != nil {
		t.Fatal(err)
	}
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed: 42, Scale: experiments.ScaleSmall, Repeats: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	st := store.NewFS(dir)
	if err := experiments.WriteArtifacts(st, report); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteManifest(st, report); err != nil {
		t.Fatal(err)
	}

	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run([]string{"-run", dir}, out); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	n, _ := out.Read(buf)
	text := string(buf[:n])
	for _, want := range []string{"2 runs, 0 failed", "Campaign summary", "machines"} {
		if !strings.Contains(text, want) {
			t.Fatalf("run summary missing %q:\n%s", want, text)
		}
	}
}

// TestAnalyzeRunWithTelemetry: a run directory carrying
// telemetry.json gets the throughput table appended.
func TestAnalyzeRunWithTelemetry(t *testing.T) {
	defer obs.Default.Disable()
	obs.Default.EnableTelemetry()
	specs, err := experiments.Select([]string{"T2"})
	if err != nil {
		t.Fatal(err)
	}
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed: 42, Scale: experiments.ScaleSmall,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	st := store.NewFS(dir)
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
	text, err := capture(t, []string{"-run", dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Run telemetry", "events/s", "T2", "peak RSS"} {
		if !strings.Contains(text, want) {
			t.Fatalf("telemetry table missing %q:\n%s", want, text)
		}
	}
}

func TestAnalyzeRejectsMissingRunDir(t *testing.T) {
	if err := run([]string{"-run", filepath.Join(t.TempDir(), "nope")}, os.Stdout); err == nil {
		t.Fatal("missing run dir must fail")
	}
}

func TestAnalyzeRejectsEmptyDir(t *testing.T) {
	if err := run([]string{"-in", t.TempDir()}, os.Stdout); err == nil {
		t.Fatal("empty dir must fail")
	}
}

func TestAnalyzeRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-badflag"}, os.Stdout); err == nil {
		t.Fatal("bad flag must fail")
	}
}

// sealedRunDir writes a minimal sealed campaign directory (T1, two
// repeats) and returns its path.
func sealedRunDir(t *testing.T) string {
	t.Helper()
	specs, err := experiments.Select([]string{"T1"})
	if err != nil {
		t.Fatal(err)
	}
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed: 42, Scale: experiments.ScaleSmall, Repeats: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	st := store.NewFS(dir)
	if err := experiments.WriteArtifacts(st, report); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteManifest(st, report); err != nil {
		t.Fatal(err)
	}
	return dir
}

func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	runErr := run(args, out)
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	n, _ := out.Read(buf)
	return string(buf[:n]), runErr
}

func TestVerifyRunDirectory(t *testing.T) {
	dir := sealedRunDir(t)
	text, err := capture(t, []string{"-verify", dir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "ok") || !strings.Contains(text, "merkle root") {
		t.Fatalf("verify output:\n%s", text)
	}

	// Flip one artifact byte: verification must fail.
	path := filepath.Join(dir, "rendered.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, []string{"-verify", dir}); err == nil {
		t.Fatal("verify accepted a tampered artifact")
	}
}

func TestVerifyRejectsLegacyRunDirectory(t *testing.T) {
	dir := sealedRunDir(t)
	// Rewrite the manifest as the old v1 schema (metadata only).
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"),
		[]byte(`{"seed":42,"scale":"small","repeats":2,"specs":["T1"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, []string{"-verify", dir}); err == nil {
		t.Fatal("verify accepted an unversioned legacy manifest")
	}
	// But -run still summarizes it, with a warning.
	text, err := capture(t, []string{"-run", dir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "legacy manifest") {
		t.Fatalf("missing legacy warning:\n%s", text)
	}
	if !strings.Contains(text, "Campaign summary") {
		t.Fatalf("legacy run not summarized:\n%s", text)
	}
}

// TestRunDirectoryNoLegacyWarning: current directories must summarize
// without the warning.
func TestRunDirectoryNoLegacyWarning(t *testing.T) {
	text, err := capture(t, []string{"-run", sealedRunDir(t)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "legacy manifest") {
		t.Fatalf("spurious legacy warning:\n%s", text)
	}
}
