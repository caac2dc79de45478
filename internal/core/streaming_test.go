package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// TestStreamingMatchesRawLog runs the identical campaign once keeping
// the raw log and once streaming, and pins the measurement fold three
// ways on the whole Index: the raw-log run's Index (built from the
// fold, like every campaign's) equals analysis.BuildIndex over that
// run's own records — the independent reference, which re-derives
// everything from the log lines — and equals the streaming run's
// Index. That is the contract that lets the experiment registry run
// streaming unconditionally. The classes cover tx links, the three
// deadline paths of the sharded conductor and all four fault classes,
// each on the one-lane layout and on region lanes.
func TestStreamingMatchesRawLog(t *testing.T) {
	txlinks := DefaultCampaignConfig(7)
	txlinks.NetworkNodes = 60
	txlinks.Blocks = 40
	txlinks.Degree = 5
	txlinks.Measurement = PaperMeasurementSpecs(20)
	txlinks.CaptureTxLinks = true
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

				if len(raw.Dataset.Records) == 0 {
					t.Fatal("raw-log campaign kept no records")
				}
				if len(str.Dataset.Records) != 0 {
					t.Fatal("streaming campaign retained records")
				}
				// Both modes list nodes in attach order — element for
				// element, not just in length.
				if !reflect.DeepEqual(raw.Dataset.NodeNames, str.Dataset.NodeNames) {
					t.Fatalf("node names differ: %v vs %v", raw.Dataset.NodeNames, str.Dataset.NodeNames)
				}

				ref, err := analysis.BuildIndex(raw.Dataset)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(raw.Index, ref) {
					t.Error("raw-log run: Index from the fold differs from BuildIndex over its records")
				}
				if !reflect.DeepEqual(str.Index, ref) {
					t.Error("streaming run: Index differs from BuildIndex over the raw-log run's records")
				}
				if !reflect.DeepEqual(raw.View, str.View) {
					t.Error("chain views diverged between raw-log and streaming runs")
				}
				for i, n := range raw.Nodes {
					if a, b := n.MaxQuietGap(), str.Nodes[i].MaxQuietGap(); a != b {
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
