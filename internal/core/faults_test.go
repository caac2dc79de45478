package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/sim"
)

// faultCampaign returns a fast faulted configuration.
func faultCampaign(seed uint64, fc *faults.Config) CampaignConfig {
	cfg := DefaultCampaignConfig(seed)
	cfg.NetworkNodes = 120
	cfg.Blocks = 50
	cfg.Streaming = true
	cfg.Faults = fc
	return cfg
}

// TestFaultedCampaignEndToEnd runs all four fault classes at once and
// checks the campaign completes, drains, and reports coherent
// dependability accounting.
func TestFaultedCampaignEndToEnd(t *testing.T) {
	horizon := 50 * 13300 * sim.Millisecond
	res, err := RunCampaign(faultCampaign(11, &faults.Config{
		Crash: &faults.Crash{MeanBetween: horizon / 20, MeanDowntime: 30 * sim.Second},
		Partitions: []faults.Partition{{
			Start:    horizon / 4,
			Duration: horizon / 4,
			Regions:  []geo.Region{geo.EasternAsia, geo.Oceania},
		}},
		Loss:  &faults.Loss{DropProb: 0.01, ExtraDelayMean: 10 * sim.Millisecond},
		Churn: &faults.Churn{MeanBetween: horizon / 30},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("faulted campaign reported no fault stats")
	}
	st := res.Faults
	if st.Crashes == 0 {
		t.Error("no crashes fired")
	}
	if st.Crashes != st.Recoveries+st.DownAtEnd {
		t.Errorf("crash books don't balance: %d crashes, %d recoveries, %d down at end",
			st.Crashes, st.Recoveries, st.DownAtEnd)
	}
	if st.Joins+st.Leaves == 0 {
		t.Error("no churn events fired")
	}
	if st.PartitionTime == 0 {
		t.Error("no partition time accrued")
	}
	if res.MessagesDropped == 0 {
		t.Error("no messages dropped across a partition plus loss")
	}
	if res.Duration <= 0 {
		t.Error("campaign reported no duration")
	}
	// The chain view still reconstructs: the partition heals, the
	// catch-up fetch pulls the gap, and all four vantage points end
	// with a usable main chain.
	if len(res.View.Main) < 10 {
		t.Errorf("reconstructed main chain has only %d blocks", len(res.View.Main))
	}
	quiet := make(map[string]sim.Time, len(res.Nodes))
	for _, n := range res.Nodes {
		quiet[n.Name()] = n.Fold().MaxQuietGap()
	}
	avail, err := analysis.Availability(st, 120, res.Duration, res.MessagesDropped, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if avail.Availability <= 0 || avail.Availability >= 1 {
		t.Errorf("availability %v outside (0,1) despite crashes", avail.Availability)
	}
	if avail.MaxQuietGapS <= 0 {
		t.Error("no quiet gap observed across a 1/4-run partition")
	}
	if analysis.RenderAvailability(avail) == "" {
		t.Error("empty availability rendering")
	}
}

// TestHealthyCampaignUnaffectedByFaultSupport pins the zero-cost
// contract: a nil Faults config produces a campaign with no injector,
// no drops, and no fault stats — the pre-fault behavior.
func TestHealthyCampaignUnaffectedByFaultSupport(t *testing.T) {
	cfg := faultCampaign(13, nil)
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Error("healthy campaign grew fault stats")
	}
	if res.MessagesDropped != 0 {
		t.Errorf("healthy campaign dropped %d messages", res.MessagesDropped)
	}
	if _, err := analysis.Availability(nil, 120, res.Duration, 0, nil); err == nil {
		t.Error("availability analysis accepted a healthy campaign")
	}
}

// TestPartitionRaisesForkRate is the D2 mechanism at unit scale: the
// same seed with and without a mid-run partition, where the split must
// add competing branches.
func TestPartitionRaisesForkRate(t *testing.T) {
	horizon := 50 * 13300 * sim.Millisecond
	forkBlocks := func(fc *faults.Config) int {
		res, err := RunCampaign(faultCampaign(17, fc))
		if err != nil {
			t.Fatal(err)
		}
		forks, err := analysis.FoldView(res.View).Forks()
		if err != nil {
			t.Fatal(err)
		}
		return forks.UncleBlocks + forks.UnrecognizedBlocks
	}
	healthy := forkBlocks(nil)
	parted := forkBlocks(&faults.Config{
		Partitions: []faults.Partition{{
			Start:    horizon / 5,
			Duration: 2 * horizon / 5,
			Regions:  []geo.Region{geo.EasternAsia},
		}},
	})
	if parted <= healthy {
		t.Errorf("partition did not raise fork blocks: healthy %d, partitioned %d", healthy, parted)
	}
}
