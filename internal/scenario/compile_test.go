package scenario

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

// chainAllOutputs requests every chain-mode output.
const chainAllOutputs = `{
  "name": "chain-all",
  "mode": "chain",
  "chain": {"blocks": 2000},
  "pools": [
    {"name": "Attacker", "share": 0.3, "gateways": ["EA"], "withholder": true},
    {"name": "Honest", "share": 0.7, "gateways": ["WE"], "empty_block_prob": 0.05, "multi_version_prob": 0.05, "multi_version_same_tx_prob": 0.5}
  ],
  "outputs": ["withholding", "sequences", "forks", "empty_blocks", "one_miner_forks"]
}`

// networkAllOutputs requests every network-mode output.
const networkAllOutputs = `{
  "name": "net-all",
  "network": {"nodes": 80, "degree": 6, "push": "all"},
  "chain": {"blocks": 80},
  "workload": {"senders": 200, "mean_interarrival_ms": 400},
  "outputs": ["propagation", "first_observation", "pool_first_observation",
              "redundancy", "transport", "commit_times", "reordering",
              "empty_blocks", "forks", "sequences"]
}`

// compileOne parses a single-variant document and returns its spec.
func compileOne(t *testing.T, doc string) experiments.Spec {
	t.Helper()
	set, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("specs: %d", len(specs))
	}
	return specs[0]
}

func TestCompileChainAllOutputs(t *testing.T) {
	sp := compileOne(t, chainAllOutputs)
	if sp.ID != "chain-all" {
		t.Fatalf("spec ID: %s", sp.ID)
	}
	outs, err := sp.Run(7, experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 5 {
		t.Fatalf("outcomes: %d", len(outs))
	}
	byID := map[string]*experiments.Outcome{}
	for _, o := range outs {
		byID[o.ID] = o
	}
	wh := byID["chain-all/withholding"]
	if wh == nil {
		t.Fatalf("missing withholding outcome: %v", outs)
	}
	// A 30% withholder over 500 blocks must trip the burst detector;
	// the honest pool must still report a (zero-valued) metric so
	// cross-repeat aggregation sees every repeat.
	if wh.Metrics["pool_Attacker_flagged"] == 0 {
		t.Errorf("withholding attacker not flagged: %v", wh.Metrics)
	}
	if _, ok := wh.Metrics["pool_Honest_flagged"]; !ok {
		t.Errorf("per-pool metric missing for unflagged pool: %v", wh.Metrics)
	}
	if byID["chain-all/forks"].Metrics["main_blocks"] == 0 {
		t.Error("forks outcome empty")
	}
}

func TestCompileNetworkAllOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full network campaign with workload")
	}
	sp := compileOne(t, networkAllOutputs)
	outs, err := sp.Run(7, experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 10 {
		t.Fatalf("outcomes: %d", len(outs))
	}
	for _, o := range outs {
		if !strings.HasPrefix(o.ID, "net-all/") {
			t.Errorf("outcome ID not variant-qualified: %s", o.ID)
		}
		if o.Rendered == "" {
			t.Errorf("outcome %s not rendered", o.ID)
		}
	}
}

// TestCompileDeterministic is the scenario half of the runner's
// determinism contract: same (seed, scale) in, identical outcomes out.
func TestCompileDeterministic(t *testing.T) {
	sp := compileOne(t, chainAllOutputs)
	a, err := sp.Run(42, experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Run(42, experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different outcomes")
	}
	c, err := sp.Run(43, experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical outcomes")
	}
}

func TestScaleFactors(t *testing.T) {
	s := Scenario{
		Name:         "sc",
		Mode:         ModeChain,
		Chain:        &ChainSection{Blocks: 1000},
		ScaleFactors: map[string]float64{"paper": 5},
	}
	if got := s.scaledBlocks(experiments.ScaleSmall); got != 250 {
		t.Errorf("small blocks: %d", got)
	}
	if got := s.scaledBlocks(experiments.ScaleMedium); got != 1000 {
		t.Errorf("medium blocks: %d", got)
	}
	// Explicit factor overrides the default 2x.
	if got := s.scaledBlocks(experiments.ScalePaper); got != 5000 {
		t.Errorf("paper blocks: %d", got)
	}
	// The floor keeps heavily downscaled runs viable.
	s.Chain.Blocks = 12
	if got := s.scaledBlocks(experiments.ScaleSmall); got != minScaledBlocks {
		t.Errorf("floored blocks: %d", got)
	}
}

// TestStressScaleFactor covers the 1k-10k-node stress knob: the
// default stress multiplier is 8x, and a file override wins.
func TestStressScaleFactor(t *testing.T) {
	s := Scenario{
		Name:  "st",
		Mode:  ModeChain,
		Chain: &ChainSection{Blocks: 1000},
	}
	if got := s.scaledBlocks(experiments.ScaleStress); got != 8000 {
		t.Errorf("default stress blocks: %d, want 8000", got)
	}
	s.ScaleFactors = map[string]float64{"stress": 1}
	if got := s.scaledBlocks(experiments.ScaleStress); got != 1000 {
		t.Errorf("overridden stress blocks: %d, want 1000", got)
	}
	if _, err := experiments.ParseScale("stress"); err != nil {
		t.Errorf("ParseScale(stress): %v", err)
	}
	if experiments.ScaleStress.String() != "stress" {
		t.Errorf("ScaleStress renders as %q", experiments.ScaleStress)
	}
}

// TestOutputCatalogConsistent ensures every cataloged output name is
// actually implemented by a compile function (and vice versa for mode
// support): each output is requested in a scenario for its supported
// mode and must validate.
func TestOutputCatalogConsistent(t *testing.T) {
	for _, name := range OutputNames() {
		def := outputDefs[name]
		s := Scenario{
			Name:    "cat",
			Chain:   &ChainSection{Blocks: 10},
			Outputs: []string{name},
		}
		if def.chainMode {
			s.Mode = ModeChain
		} else {
			s.Mode = ModeNetwork
			s.Network = &NetworkSection{Nodes: 40}
			if def.needsWorkload {
				s.Workload = &WorkloadSection{}
			}
			if def.needsFaults {
				s.Faults = &FaultsSection{Loss: &LossSection{DropProb: 0.01}}
			}
		}
		if err := s.Validate(); err != nil {
			t.Errorf("output %s does not validate in its own mode: %v", name, err)
		}
	}
}

// twoWithholders has two private-chain pools, so one public block can
// threaten both at once.
const twoWithholders = `{
  "name": "two-withholders",
  "mode": "chain",
  "chain": {"blocks": 3000},
  "pools": [
    {"name": "A", "share": 0.3, "gateways": ["EA"], "withholder": true},
    {"name": "B", "share": 0.3, "gateways": ["NA"], "withholder": true},
    {"name": "C", "share": 0.4, "gateways": ["WE"]}
  ],
  "outputs": ["withholding", "sequences", "forks"]
}`

// TestTwoWithholdersDeterministic: the simulator used to release
// threatened private chains in map-iteration order, and each release
// draws from the mining RNG, so a scenario with two withholders gave a
// different chain on every run of one seed. Two sealed runs must now
// hold the same outcomes.json, byte for byte.
func TestTwoWithholdersDeterministic(t *testing.T) {
	specs := []experiments.Spec{compileOne(t, twoWithholders)}
	var sealed [2][]byte
	for i := range sealed {
		report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{Seed: 5, Scale: experiments.ScaleSmall, Repeats: 2})
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewMem()
		if err := Seal(st, report, nil, nil); err != nil {
			t.Fatal(err)
		}
		if sealed[i], err = st.Get(experiments.OutcomesJSON); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sealed[0], sealed[1]) {
		t.Fatal("two runs of a two-withholder scenario at one seed sealed different outcomes.json")
	}
}
