// Command ethmeasure runs a measurement campaign over the simulated
// Ethereum network and writes the collected logs as a JSONL dataset —
// the reproduction of the paper's data-collection phase (§II).
//
// Usage:
//
//	ethmeasure -out dataset/ [-seed 42] [-nodes 800] [-blocks 500]
//	           [-peers 100] [-degree 8] [-txrate 0]
//	           [-relay sqrt-push|push-all|announce-only|compact|hybrid]
//
// One JSONL file is written per measurement node (NA, EA, WE, CE),
// mirroring the study's per-machine raw logs. With a transaction
// workload (-txrate > 0) every block record carries its transaction
// hash list, which the commit-time analyses need. The dataset is sealed
// with a digest manifest, so `ethanalyze -verify dataset/` proves it
// unmodified offline.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/txgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ethmeasure:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ethmeasure", flag.ContinueOnError)
	var (
		out      = fs.String("out", "dataset", "output directory for JSONL logs")
		seed     = fs.Uint64("seed", 42, "simulation seed")
		nodes    = fs.Int("nodes", 800, "overlay size")
		blocks   = fs.Uint64("blocks", 500, "block heights to produce")
		peers    = fs.Int("peers", 100, "measurement-node peer count")
		degree   = fs.Int("degree", 8, "overlay dial-out degree")
		txrate   = fs.Float64("txrate", 0, "transaction workload rate in tx/s (0 disables; >0 also records per-block tx hash lists)")
		relayArg = fs.String("relay", "", "block-relay protocol: sqrt-push (default)|push-all|announce-only|compact|hybrid")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := relay.ParseMode(*relayArg)
	if err != nil {
		return err
	}
	cfg := core.DefaultCampaignConfig(*seed)
	cfg.Relay = relay.Config{Mode: mode}
	cfg.NetworkNodes = *nodes
	cfg.Blocks = *blocks
	cfg.Degree = *degree
	cfg.Measurement = core.PaperMeasurementSpecs(*peers)
	if *txrate > 0 {
		wl := txgen.DefaultConfig()
		wl.MeanInterArrival = sim.Time(1000 / *txrate)
		cfg.Workload = &wl
	}

	fmt.Printf("running campaign: %d nodes, %d blocks, seed %d\n", *nodes, *blocks, *seed)
	res, err := core.RunCampaign(cfg)
	if err != nil {
		return err
	}
	st := store.NewFS(*out)
	for _, node := range res.Nodes {
		name := node.Name() + ".jsonl"
		var buf bytes.Buffer
		if err := measure.WriteJSONL(&buf, node.Records()); err != nil {
			return fmt.Errorf("encode %s: %w", name, err)
		}
		if err := st.Put(name, buf.Bytes()); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
		fmt.Printf("  %s/%s: %d records\n", *out, name, len(node.Records()))
	}
	if err := sealDataset(st, cfg); err != nil {
		return err
	}
	bw, err := analysis.RenderBandwidth(res.Bandwidth)
	if err != nil {
		return err
	}
	fmt.Print(bw)
	return nil
}

// datasetManifest is a measurement dataset's manifest.json: the
// campaign sizing joined with the store digest record. The digest
// fields mirror store.Manifest, so store.Verify (and therefore
// `ethanalyze -verify`) works on datasets and campaign runs alike.
type datasetManifest struct {
	SchemaVersion int          `json:"schema_version"`
	Seed          uint64       `json:"seed"`
	Nodes         int          `json:"nodes"`
	Blocks        uint64       `json:"blocks"`
	Relay         string       `json:"relay"`
	MerkleRoot    string       `json:"merkle_root"`
	Files         []store.File `json:"files"`
}

// sealDataset digests the written logs and writes the manifest. Last
// write into the store: blobs added afterwards would fail -verify.
func sealDataset(st store.Store, cfg core.CampaignConfig) error {
	m, err := st.Manifest()
	if err != nil {
		return fmt.Errorf("digest dataset: %w", err)
	}
	doc := datasetManifest{
		SchemaVersion: m.SchemaVersion,
		Seed:          cfg.Seed,
		Nodes:         cfg.NetworkNodes,
		Blocks:        cfg.Blocks,
		Relay:         cfg.Relay.Mode.String(),
		MerkleRoot:    m.MerkleRoot,
		Files:         m.Files,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal manifest: %w", err)
	}
	return st.Put(store.ManifestFile, append(data, '\n'))
}
