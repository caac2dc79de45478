package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// The sharded-execution determinism contract at the campaign level:
// every artifact — measurement records, transport totals, fault books,
// virtual duration — is a pure function of the configuration, never of
// the shard (worker) count. Run with -race these tests also exercise
// the cross-lane merge, the phase-A/phase-B barrier, and the lane-
// local pools under real concurrency; `make test-shard` selects them.

// shardDigest is the cross-shard comparison surface: everything a
// campaign reports that could conceivably wobble under concurrency.
type shardDigest struct {
	Messages uint64
	Bytes    uint64
	Dropped  uint64
	Duration sim.Time
	Records  int
	Main     int
	TxCount  int
}

func digestOf(t *testing.T, cfg CampaignConfig) (shardDigest, *CampaignResult) {
	t.Helper()
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("shards=%d: %v", cfg.Shards, err)
	}
	return shardDigest{
		Messages: res.MessagesSent,
		Bytes:    res.BytesSent,
		Dropped:  res.MessagesDropped,
		Duration: res.Duration,
		Records:  len(res.Dataset.Records),
		Main:     len(res.View.Main),
		TxCount:  len(res.TxRecords),
	}, res
}

// shardCampaign is a small healthy campaign with a transaction
// workload, so the invariance check covers block relay, tx gossip and
// the pull paths together.
func shardCampaign(seed uint64) CampaignConfig {
	cfg := DefaultCampaignConfig(seed)
	cfg.NetworkNodes = 150
	cfg.Blocks = 30
	wl := txgen.DefaultConfig()
	wl.Senders = 40
	wl.MeanInterArrival = 1600 // ~0.6 tx/s: enough gossip to cross lanes
	cfg.Workload = &wl
	return cfg
}

// TestShardedCampaignInvariantAcrossShardCounts: identical artifacts
// at shards 1, 2 and 6 — the lane decomposition is fixed by the region
// enum, so the worker count must be invisible in every output,
// including the exact per-record reception times.
func TestShardedCampaignInvariantAcrossShardCounts(t *testing.T) {
	base := shardCampaign(23)
	base.Shards = 1
	ref, refRes := digestOf(t, base)
	if ref.Records == 0 || ref.Main < 10 || ref.TxCount == 0 {
		t.Fatalf("reference sharded campaign too small to be meaningful: %+v", ref)
	}
	for _, shards := range []int{2, 6} {
		cfg := shardCampaign(23)
		cfg.Shards = shards
		got, res := digestOf(t, cfg)
		if got != ref {
			t.Fatalf("shards=%d digest %+v, want %+v", shards, got, ref)
		}
		if !reflect.DeepEqual(res.Dataset.Records, refRes.Dataset.Records) {
			t.Fatalf("shards=%d: measurement records differ from shards=1", shards)
		}
	}
}

// shardFaultedCampaign runs all four fault classes at once, keeping raw
// records so runs can be compared reception by reception.
func shardFaultedCampaign(shards int) CampaignConfig {
	horizon := 50 * 13300 * sim.Millisecond
	cfg := faultCampaign(31, &faults.Config{
		Crash: &faults.Crash{MeanBetween: horizon / 20, MeanDowntime: 30 * sim.Second},
		Partitions: []faults.Partition{{
			Start:    horizon / 4,
			Duration: horizon / 4,
			Regions:  []geo.Region{geo.EasternAsia, geo.Oceania},
		}},
		Loss:  &faults.Loss{DropProb: 0.01, ExtraDelayMean: 10 * sim.Millisecond},
		Churn: &faults.Churn{MeanBetween: horizon / 30},
	})
	cfg.Streaming = false
	cfg.Shards = shards
	return cfg
}

// TestShardedFaultedCampaignInvariance runs all four fault classes
// sharded and asserts shard-count invariance: partitions, loss draws,
// crash/churn timing and the catch-up fetch must all come out of
// region-keyed streams, never worker-keyed ones.
func TestShardedFaultedCampaignInvariance(t *testing.T) {
	ref, refRes := digestOf(t, shardFaultedCampaign(1))
	if ref.Dropped == 0 {
		t.Fatal("faulted reference dropped nothing; the test is vacuous")
	}
	refStats := *refRes.Faults
	for _, shards := range []int{2, 6} {
		got, res := digestOf(t, shardFaultedCampaign(shards))
		if got != ref {
			t.Fatalf("shards=%d digest %+v, want %+v", shards, got, ref)
		}
		if *res.Faults != refStats {
			t.Fatalf("shards=%d fault stats %+v, want %+v", shards, *res.Faults, refStats)
		}
		if !reflect.DeepEqual(res.Dataset.Records, refRes.Dataset.Records) {
			t.Fatalf("shards=%d: measurement records differ from shards=1", shards)
		}
	}
}

// TestShardedLookaheadBoundsInvariance pins the lookahead soundness
// claim from the record side: the topology-aware per-pair matrix is a
// pure scheduling optimization, so a six-worker run under the
// latency-model bounds must reproduce, reception for reception, the
// same run forced back to the uniform 1 ms matrix. A difference would
// mean a deadline overshot a real arrival — the back-dating bug the
// merge asserts against, which shows up here as its panic — or that
// window placement leaked into the simulation. The three classes take
// the three deadline paths: a healthy campaign runs under the
// mining-race GlobalHorizon, while a workload or a fault plan falls
// back to the next-global-event bound.
func TestShardedLookaheadBoundsInvariance(t *testing.T) {
	healthy := DefaultCampaignConfig(17)
	healthy.NetworkNodes = 150
	healthy.Blocks = 30
	healthy.Shards = 6
	workload := shardCampaign(23)
	workload.Shards = 6
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"healthy", healthy},
		{"workload", workload},
		{"faulted", shardFaultedCampaign(6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() { uniformLookahead = false }()
			want, wantRes := digestOf(t, tc.cfg)
			uniformLookahead = true
			got, gotRes := digestOf(t, tc.cfg)
			if want.Records == 0 {
				t.Fatalf("campaign too small to be meaningful: %+v", want)
			}
			if got != want {
				t.Fatalf("uniform-lookahead digest %+v, want %+v", got, want)
			}
			if !reflect.DeepEqual(gotRes.Dataset.Records, wantRes.Dataset.Records) {
				t.Fatal("measurement records differ between bound matrices")
			}
			if !reflect.DeepEqual(gotRes.Faults, wantRes.Faults) {
				t.Fatalf("fault stats %+v, want %+v", gotRes.Faults, wantRes.Faults)
			}
		})
	}
}

// TestShardedEnvKnob pins the ETHREPRO_SHARDS fallback: an unset
// Shards field defers to the environment, an explicit field wins, and
// a value that is not a count fails the campaign instead of selecting
// the one-lane family.
func TestShardedEnvKnob(t *testing.T) {
	for _, tc := range []struct {
		env    string
		shards int
		want   int
	}{
		{"6", 0, 6},
		{"6", 2, 2}, // explicit beats env
		{"6", 100, geo.NumRegions},
		{"", 0, 0},
		{"0", 0, 0},
	} {
		t.Setenv("ETHREPRO_SHARDS", tc.env)
		if got, err := resolveShards(tc.shards); err != nil || got != tc.want {
			t.Errorf("env %q: resolveShards(%d) = %d, %v; want %d", tc.env, tc.shards, got, err, tc.want)
		}
	}
	for _, bad := range []string{"two", "-3"} {
		t.Setenv("ETHREPRO_SHARDS", bad)
		_, err := NewCampaign(DefaultCampaignConfig(1))
		if err == nil || !strings.Contains(err.Error(), "ETHREPRO_SHARDS") || !strings.Contains(err.Error(), bad) {
			t.Errorf("ETHREPRO_SHARDS=%q: NewCampaign error %v, want one naming the variable and value", bad, err)
		}
	}
}
