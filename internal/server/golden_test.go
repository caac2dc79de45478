package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The server's core acceptance gate: a campaign submitted over HTTP
// must write a run directory byte-identical to the same campaign run
// through the ethrepro CLI pipeline — same files, same bytes, same
// Merkle root — at any parallelism.

// cliRun executes a campaign exactly the way `ethrepro -scenario f
// -out dir -parallel N -telemetry=false` does: load, resolve, run,
// seal.
func cliRun(t *testing.T, scenarioPath, dir string, seed uint64, repeats, parallel int) {
	t.Helper()
	set, err := scenario.Load(scenarioPath)
	if err != nil {
		t.Fatal(err)
	}
	specs, sets, _, err := scenario.Resolve(experiments.Specs(), []*scenario.Set{set}, nil, repeats)
	if err != nil {
		t.Fatal(err)
	}
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed: seed, Scale: experiments.ScaleSmall, Repeats: repeats, Parallel: parallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Seal(store.NewFS(dir), report, sets, nil); err != nil {
		t.Fatal(err)
	}
}

// serveRun submits the same campaign over HTTP against a filesystem
// store and waits for it to finish.
func serveRun(t *testing.T, scenarioPath, dir string, seed uint64, repeats, parallel int) {
	t.Helper()
	srv := New(Config{
		// The budget must not clamp below the requested parallelism,
		// or the comparison would not exercise the parallel path.
		WorkerBudget: parallel,
		OpenStore: func(id string) (store.Store, error) {
			return store.NewFS(dir), nil
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doc, err := os.ReadFile(scenarioPath)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{
		Scenario: doc,
		// The CLI records the source path in scenario.json; matching
		// it is part of the byte-identity contract.
		ScenarioPath: scenarioPath,
		Seed:         seed,
		Repeats:      repeats,
		Parallel:     parallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %+v", resp.StatusCode, st)
	}
	final := waitState(t, ts.URL, st.ID, StateDone)
	if final.Failed != 0 {
		t.Fatalf("campaign failed: %+v", final)
	}
}

// dirContents maps every file under root to its bytes.
func dirContents(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertIdenticalDirs(t *testing.T, cliDir, httpDir string) {
	t.Helper()
	cli, srv := dirContents(t, cliDir), dirContents(t, httpDir)
	var names []string
	for name := range cli {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, ok := srv[name]
		if !ok {
			t.Errorf("HTTP run missing %s", name)
			continue
		}
		if !bytes.Equal(cli[name], got) {
			t.Errorf("%s differs between CLI and HTTP runs (%d vs %d bytes)",
				name, len(cli[name]), len(got))
		}
	}
	for name := range srv {
		if _, ok := cli[name]; !ok {
			t.Errorf("HTTP run has extra file %s", name)
		}
	}
}

// scenarioFile picks the gate's scenario: the paper-baseline
// acceptance file, or a sweep-free chain scenario under -short.
func scenarioFile(t *testing.T) string {
	t.Helper()
	if !testing.Short() {
		return filepath.Join("..", "..", "examples", "scenarios", "paper-baseline.json")
	}
	path := filepath.Join(t.TempDir(), "short.json")
	doc := `{
	  "name": "short-gate",
	  "mode": "chain",
	  "chain": {"blocks": 300, "inter_block_ms": 13300},
	  "outputs": ["forks"],
	  "sweep": {"axes": [{"field": "chain.inter_block_ms", "values": [9000, 13300]}]}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGoldenHTTPMatchesCLIByteForByte(t *testing.T) {
	path := scenarioFile(t)
	const seed, repeats = 1311, 2
	for _, parallel := range []int{1, 8} {
		cliDir := filepath.Join(t.TempDir(), "cli")
		httpDir := filepath.Join(t.TempDir(), "http")
		cliRun(t, path, cliDir, seed, repeats, parallel)
		serveRun(t, path, httpDir, seed, repeats, parallel)
		assertIdenticalDirs(t, cliDir, httpDir)

		// Both run directories verify offline against the same root.
		for _, dir := range []string{cliDir, httpDir} {
			if err := store.Verify(store.NewFS(dir)); err != nil {
				t.Errorf("parallel=%d: %s fails verification: %v", parallel, dir, err)
			}
		}
		cliM, err := store.ReadManifest(store.NewFS(cliDir))
		if err != nil {
			t.Fatal(err)
		}
		httpM, err := store.ReadManifest(store.NewFS(httpDir))
		if err != nil {
			t.Fatal(err)
		}
		if cliM.MerkleRoot != httpM.MerkleRoot {
			t.Errorf("parallel=%d: merkle roots differ: CLI %s, HTTP %s",
				parallel, cliM.MerkleRoot, httpM.MerkleRoot)
		}
	}
}
