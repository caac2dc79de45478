package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// TestStreamingMatchesRawLog runs the identical campaign once keeping
// the raw log and once streaming, and pins the measurement fold across
// the serialization boundary on the whole Index: the raw-log run's
// records, written to JSONL and read back (measure.WriteJSONL →
// ReadJSONL → analysis.FromRecords → BuildIndex, the ethanalyze -in
// path), index exactly like both runs' Index (built from the nodes'
// live fold, like every campaign's). That is the contract that lets
// the experiment registry run streaming unconditionally and a
// published dataset reproduce the campaign's figures. The classes cover tx links, the three
// deadline paths of the sharded conductor and all four fault classes,
// each on the serial loop and on the conductor.
func TestStreamingMatchesRawLog(t *testing.T) {
	txlinks := DefaultCampaignConfig(7)
	txlinks.NetworkNodes = 60
	txlinks.Blocks = 40
	txlinks.Degree = 5
	txlinks.Measurement = PaperMeasurementSpecs(20)
	wl := txgen.DefaultConfig()
	wl.Senders = 50
	wl.MeanInterArrival = 400 * sim.Millisecond
	txlinks.Workload = &wl
	healthy := DefaultCampaignConfig(17)
	healthy.NetworkNodes = 150
	healthy.Blocks = 30

	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"txlinks", txlinks},
		{"healthy", healthy},
		{"workload", shardCampaign(23)},
		{"faulted", shardFaultedCampaign(0)},
	} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				run := func(streaming bool) *CampaignResult {
					t.Helper()
					cfg := tc.cfg
					cfg.Shards = shards
					cfg.Streaming = streaming
					res, err := RunCampaign(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				raw, str := run(false), run(true)

				if len(records(raw)) == 0 {
					t.Fatal("raw-log campaign kept no records")
				}
				if len(records(str)) != 0 {
					t.Fatal("streaming campaign retained records")
				}
				// Both modes list nodes in attach order — element for
				// element, not just in length.
				for i, n := range raw.Nodes {
					if n.Name() != str.Nodes[i].Name() {
						t.Fatalf("node %d: %s raw-log, %s streaming", i, n.Name(), str.Nodes[i].Name())
					}
				}

				var buf bytes.Buffer
				if err := measure.WriteJSONL(&buf, records(raw)); err != nil {
					t.Fatal(err)
				}
				read, err := measure.ReadJSONL(&buf)
				if err != nil {
					t.Fatal(err)
				}
				ds, err := analysis.FromRecords(read)
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := analysis.BuildIndex(ds)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(raw.Index, replayed) {
					t.Error("raw-log run: Index differs from BuildIndex over its records read back from JSONL")
				}
				if !reflect.DeepEqual(str.Index, replayed) {
					t.Error("streaming run: Index differs from BuildIndex over the raw-log run's records read back from JSONL")
				}
				if !reflect.DeepEqual(raw.View, str.View) {
					t.Error("chain views diverged between raw-log and streaming runs")
				}
				for i, n := range raw.Nodes {
					if a, b := n.Fold().MaxQuietGap(), str.Nodes[i].Fold().MaxQuietGap(); a != b {
						t.Errorf("%s: quiet gap %v raw-log, %v streaming", n.Name(), a, b)
					}
				}
				if raw.MessagesSent != str.MessagesSent || raw.BytesSent != str.BytesSent {
					t.Errorf("transport totals diverged: %d/%d vs %d/%d",
						raw.MessagesSent, raw.BytesSent, str.MessagesSent, str.BytesSent)
				}
			})
		}
	}
}
