// Dataset: demonstrate the open-data deliverable — run a campaign,
// write the per-node JSONL logs exactly as cmd/ethmeasure does, then
// re-load them from disk and run the analysis pipeline on the files
// alone, the way a third party would reuse the published dataset.
//
//	go run ./examples/dataset [-short]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/measure"
)

// short downsizes the campaign for CI smoke runs (make examples).
var short = flag.Bool("short", false, "run a downscaled demo")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "ethmeasure-dataset-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Collect.
	cfg := core.DefaultCampaignConfig(5)
	cfg.NetworkNodes = 250
	cfg.Blocks = 150
	if *short {
		cfg.NetworkNodes = 100
		cfg.Blocks = 50
	}
	result, err := core.RunCampaign(cfg)
	if err != nil {
		return err
	}
	for _, node := range result.Nodes {
		path := filepath.Join(dir, node.Name()+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := measure.WriteJSONL(f, node.Records()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d records, %d bytes\n", path, len(node.Records()), info.Size())
	}

	// Reload from disk only — no in-memory state reused.
	var records []measure.Record
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return err
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		recs, err := measure.ReadJSONL(f)
		f.Close()
		if err != nil {
			return err
		}
		records = append(records, recs...)
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
		return err
	}
	// Figures 1 and 2 are rows of the experiments' output table: the
	// dataset reads exactly what the campaign that wrote it renders.
	outs, errs := experiments.IndexOutputs(idx, view, ds.NodeNames, []string{"propagation", "first_observation"})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("from the on-disk dataset alone: %d blocks, median propagation %.0f ms\n",
		len(idx.BlockFirst), outs[0].Metrics["median_ms"])
	fmt.Println(outs[1].Rendered)
	return nil
}
