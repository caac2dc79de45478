// Command ethanalyze post-processes a JSONL dataset produced by
// ethmeasure and prints the paper's tables and figures — the
// reproduction of the study's pandas/NumPy analysis phase (§III). It
// also reads experiment-campaign run directories written by
// ethrepro -out and prints their cross-repeat aggregation.
//
// Run directories written by current ethrepro/ethserve carry a
// versioned manifest with per-file SHA-256 digests batched into a
// Merkle root; -verify recomputes everything and fails on any
// tampered, missing or smuggled artifact, entirely offline.
//
// Usage:
//
//	ethanalyze -in dataset/ [-redundancy-node WE-default]
//	ethanalyze -run paper_runs/run1
//	ethanalyze -verify paper_runs/run1
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/scenario"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ethanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("ethanalyze", flag.ContinueOnError)
	var (
		in        = fs.String("in", "dataset", "directory of JSONL logs")
		redNode   = fs.String("redundancy-node", "", "node name for Table II (default: skip)")
		runDir    = fs.String("run", "", "ethrepro run directory to summarize instead of JSONL logs")
		verifyDir = fs.String("verify", "", "artifact directory to digest-verify against its manifest, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verifyDir != "" {
		return verifyArtifacts(*verifyDir, w)
	}
	if *runDir != "" {
		return analyzeRun(*runDir, w)
	}
	paths, err := filepath.Glob(filepath.Join(*in, "*.jsonl"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .jsonl files under %s", *in)
	}
	var records []measure.Record
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		recs, err := measure.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		records = append(records, recs...)
		fmt.Fprintf(w, "loaded %s: %d records\n", path, len(recs))
	}
	ds, err := analysis.FromRecords(records)
	if err != nil {
		return err
	}
	idx, err := analysis.BuildIndex(ds)
	if err != nil {
		return err
	}
	view, err := analysis.ViewFromIndex(idx)
	if err != nil {
		return fmt.Errorf("reconstruct chain: %w", err)
	}
	// The paper's figures are rows of the experiments' output table, so
	// a dataset prints what the campaign that wrote it renders. Table
	// II reports on one vantage; the others on every node.
	show := func(vantages []string, names ...string) {
		outs, errs := experiments.IndexOutputs(idx, view, vantages, names)
		for i, out := range outs {
			if errs[i] != nil {
				fmt.Fprintf(w, "%s unavailable: %v\n", out.ID, errs[i])
			} else {
				fmt.Fprintln(w, out.Rendered)
			}
		}
	}
	show(ds.NodeNames, "propagation", "first_observation", "pool_first_observation")
	if *redNode != "" {
		show([]string{*redNode}, "redundancy")
	}
	show(ds.NodeNames, "commit_times", "reordering", "empty_blocks", "forks", "one_miner_forks", "sequences")
	return nil
}

// verifyArtifacts checks an artifact directory (a campaign run or an
// ethmeasure dataset) against its embedded manifest: every file
// digest plus the Merkle root. Verification is offline — only the
// directory is needed.
func verifyArtifacts(dir string, w *os.File) error {
	st := store.NewFS(dir)
	if err := store.Verify(st); err != nil {
		return err
	}
	m, err := store.ReadManifest(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: ok — %d file(s) verified, merkle root %s\n",
		dir, len(m.Files), m.MerkleRoot)
	return nil
}

// analyzeRun summarizes an ethrepro campaign directory: per-run status
// and the cross-repeat metric aggregation. Scenario campaigns embed
// their resolved scenarios; those runs are labeled by variant.
func analyzeRun(dir string, w *os.File) error {
	st := store.NewFS(dir)
	report, err := experiments.ReadArtifacts(st)
	if err != nil {
		return err
	}
	// Both manifest versions read fine, but only the versioned schema
	// carries digests — flag legacy directories so stale runs are
	// re-generated rather than trusted.
	if m, err := experiments.ReadManifest(st); err == nil && m.Legacy() {
		fmt.Fprintf(w, "warning: %s has an unversioned legacy manifest (no digests); re-run to enable -verify\n", dir)
	}
	sets, err := scenario.ReadArtifact(st)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Built-in campaign; nothing to label.
	case err != nil:
		return err
	default:
		// A partial -only run records the full scenario but executes a
		// subset of its variants; flag the ones without results.
		ran := map[string]bool{}
		for _, res := range report.Results {
			ran[res.Spec.ID] = true
		}
		for _, set := range sets {
			fmt.Fprintf(w, "scenario %s (%s mode, %d variant(s))\n",
				set.Base.Name, set.Base.RunMode(), len(set.Variants))
			for _, v := range set.Variants {
				note := ""
				if !ran[v.ID()] {
					note = "  (not run)"
				}
				fmt.Fprintf(w, "  %s%s\n", v.ID(), note)
			}
		}
		fmt.Fprintln(w)
	}
	failed := 0
	for _, res := range report.Results {
		if res.Err != nil {
			failed++
			fmt.Fprintf(w, "%-8s repeat %d (seed %d): FAILED: %v\n",
				res.Spec.ID, res.Repeat, res.Seed, res.Err)
		}
	}
	fmt.Fprintf(w, "campaign %s: %d runs, %d failed\n\n", dir, len(report.Results), failed)
	fmt.Fprint(w, report.RenderSummary())
	// Runs recorded with `ethrepro -telemetry` (the default with -out)
	// carry a performance record; surface it as a throughput table.
	if tel, err := experiments.ReadTelemetry(st); err == nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.RenderTelemetry(tel))
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}
