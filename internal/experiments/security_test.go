package experiments

import (
	"strings"
	"testing"
)

func TestWithholdingExperimentShape(t *testing.T) {
	o := specOutcomes(t, "W1")["W1"]
	// The paper's argument requires both directions: honest sequences
	// pass the burst test, a real withholder fails it.
	if o.Metrics["honest_flagged"] != 0 {
		t.Fatalf("honest runs flagged: %v", o.Metrics["honest_flagged"])
	}
	if o.Metrics["attacker_runs"] == 0 {
		t.Fatal("attacker produced no runs")
	}
	if o.Metrics["attacker_flagged"] == 0 {
		t.Fatal("attacker never flagged")
	}
	if !strings.Contains(o.Rendered, "Sparkpool") {
		t.Fatal("render missing context")
	}
}

func TestConstantinopleExperimentShape(t *testing.T) {
	o := specOutcomes(t, "C1")["C1"]
	bombed := o.Metrics["bombed_interblock_s"]
	delayed := o.Metrics["delayed_interblock_s"]
	// The delayed regime sits at the 13.3 s equilibrium; the live
	// bomb stretches intervals above it — the paper's 13.3 vs 14.3+
	// story.
	if delayed < 12 || delayed > 15 {
		t.Fatalf("delayed inter-block %v s out of band", delayed)
	}
	if bombed <= delayed*1.03 {
		t.Fatalf("bomb should stretch intervals: %v vs %v", bombed, delayed)
	}
}

func TestEmptyBlockSpreadShape(t *testing.T) {
	skipInShort(t) // two workload campaigns, ~1 min
	o := specOutcomes(t, "E1")["E1"]
	// Widespread empty mining must lengthen the inclusion tail.
	if o.Metrics["spread_inclusion_p90_s"] <= o.Metrics["today_inclusion_p90_s"] {
		t.Fatalf("spread p90 %v should exceed today's %v",
			o.Metrics["spread_inclusion_p90_s"], o.Metrics["today_inclusion_p90_s"])
	}
	if o.Metrics["today_inclusion_median_s"] <= 0 {
		t.Fatal("baseline median missing")
	}
}

func TestRevenueExperimentShape(t *testing.T) {
	o := specOutcomes(t, "INC")["INC"]
	if o.Metrics["one_miner_eth"] <= 0 {
		t.Fatal("one-miner uncle income must be positive under the standard rule")
	}
	// The §III-C3 tradeoff: fees ~1% of the block reward.
	if f := o.Metrics["empty_fee_fraction"]; f < 0.005 || f > 0.02 {
		t.Fatalf("fee fraction %v", f)
	}
}
