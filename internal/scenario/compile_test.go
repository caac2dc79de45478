package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/types"
)

// chainAllOutputs requests every chain-mode row of the output table.
var chainAllOutputs = `{
  "name": "chain-all",
  "mode": "chain",
  "chain": {"blocks": 2000},
  "pools": [
    {"name": "Attacker", "share": 0.3, "gateways": ["EA"], "withholder": true},
    {"name": "Honest", "share": 0.7, "gateways": ["WE"], "empty_block_prob": 0.05, "multi_version_prob": 0.05, "multi_version_same_tx_prob": 0.5}
  ],
  "outputs": ` + outputsIn(ModeChain) + `
}`

// networkAllOutputs requests every network-mode row of the output
// table, with the workload and fault sections some of them need.
var networkAllOutputs = `{
  "name": "net-all",
  "network": {"nodes": 80, "degree": 6, "push": "all"},
  "chain": {"blocks": 80},
  "workload": {"senders": 200, "mean_interarrival_ms": 400},
  "faults": {"loss": {"drop_prob": 0.01}},
  "outputs": ` + outputsIn(ModeNetwork) + `
}`

// outputsIn lists, as a JSON array, every output the table declares
// for mode.
func outputsIn(mode string) string {
	var names []string
	for _, name := range experiments.OutputNames() {
		if o, _ := experiments.LookupOutput(name); mode == ModeChain && o.Chain || mode == ModeNetwork && o.Network {
			names = append(names, name)
		}
	}
	b, err := json.Marshal(names)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// runAllOutputs runs a document requesting every output of one mode at
// two seeds. Every output must be rendered, carry its variant-qualified
// ID, and emit the same metric keys at both seeds: a key that only some
// runs emit skews the cross-repeat mean. It returns the first run's
// outcomes by output name.
func runAllOutputs(t *testing.T, doc string) map[string]*experiments.Outcome {
	t.Helper()
	sp := compileOne(t, doc)
	var runs [2]map[string]*experiments.Outcome
	for i, seed := range []uint64{7, 8} {
		outs, err := sp.Run(seed, experiments.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(sp.Produces) {
			t.Fatalf("seed %d: %d outcomes, want %d", seed, len(outs), len(sp.Produces))
		}
		runs[i] = map[string]*experiments.Outcome{}
		for j, o := range outs {
			if o.ID != sp.Produces[j] {
				t.Errorf("outcome %d ID %q, want %q", j, o.ID, sp.Produces[j])
			}
			if o.Rendered == "" {
				t.Errorf("outcome %s not rendered", o.ID)
			}
			runs[i][strings.TrimPrefix(o.ID, sp.ID+"/")] = o
		}
	}
	for name, o := range runs[0] {
		a, b := metricKeys(o), metricKeys(runs[1][name])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("output %s emits different metric keys across seeds: %v vs %v", name, a, b)
		}
	}
	return runs[0]
}

// metricKeys lists an outcome's metric names, sorted.
func metricKeys(o *experiments.Outcome) []string {
	keys := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

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
	byName := runAllOutputs(t, chainAllOutputs)
	wh := byName["withholding"]
	// A 30% withholder over 500 blocks must trip the burst detector;
	// the honest pool must still report a (zero-valued) metric so
	// cross-repeat aggregation sees every repeat.
	if wh.Metrics["pool_Attacker_flagged"] == 0 {
		t.Errorf("withholding attacker not flagged: %v", wh.Metrics)
	}
	if _, ok := wh.Metrics["pool_Honest_flagged"]; !ok {
		t.Errorf("per-pool metric missing for unflagged pool: %v", wh.Metrics)
	}
	if byName["forks"].Metrics["main_blocks"] == 0 {
		t.Error("forks outcome empty")
	}
	if !strings.Contains(byName["sequences"].Rendered, "observed vs expected") {
		t.Errorf("sequences output lacks the censorship table:\n%s", byName["sequences"].Rendered)
	}
}

func TestCompileNetworkAllOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full network campaign with workload")
	}
	runAllOutputs(t, networkAllOutputs)
}

// TestFirstObservationEmitsEveryVantage: a vantage that never sees a
// block first still reports its (zero) share, so its cross-repeat mean
// is taken over every repeat rather than only the ones it won. The row
// reads a hand-built index in which the hub hears every block 40 ms
// before the leaf, past the NTP ambiguity bound, so the leaf's zero is
// by construction rather than a draw.
func TestFirstObservationEmitsEveryVantage(t *testing.T) {
	idx := &analysis.Index{BlockFirst: map[types.Hash]map[string]analysis.Observation{}}
	for k := range 5 {
		at := sim.Time(13_000 * k)
		idx.BlockFirst[types.HashBytes([]byte{byte(k)})] = map[string]analysis.Observation{
			"hub":  {Node: "hub", Local: at, Kind: measure.KindBlock},
			"leaf": {Node: "leaf", Local: at + 40, Kind: measure.KindBlock},
		}
	}
	outs, errs := experiments.IndexOutputs(idx, nil, []string{"hub", "leaf"}, []string{"first_observation"})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	m := outs[0].Metrics
	share, ok := m["leaf_share"]
	if !ok {
		t.Fatalf("no leaf_share key for the vantage that never observed first: %v", m)
	}
	if share != 0 || m["hub_share"] != 1 {
		t.Fatalf("shares %v, want hub 1 and leaf 0", m)
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

// TestOutputCatalogConsistent walks the output table: every row has a
// title, validates alone in each mode it declares (with the sections it
// needs) and is rejected in the modes it does not declare.
func TestOutputCatalogConsistent(t *testing.T) {
	for _, name := range experiments.OutputNames() {
		o, _ := experiments.LookupOutput(name)
		if o.Title == "" {
			t.Errorf("output %s has no title", name)
		}
		for mode, declared := range map[string]bool{ModeChain: o.Chain, ModeNetwork: o.Network} {
			s := Scenario{
				Name:    "cat",
				Mode:    mode,
				Chain:   &ChainSection{Blocks: 10},
				Outputs: []string{name},
			}
			if mode == ModeNetwork {
				s.Network = &NetworkSection{Nodes: 40}
				if o.NeedsWorkload {
					s.Workload = &WorkloadSection{}
				}
				if o.NeedsFaults {
					s.Faults = &FaultsSection{Loss: &LossSection{DropProb: 0.01}}
				}
			}
			err := s.Validate()
			if declared && err != nil {
				t.Errorf("output %s does not validate in %s mode: %v", name, mode, err)
			}
			if !declared && err == nil {
				t.Errorf("output %s validates in %s mode, which it does not declare", name, mode)
			}
		}
	}
}

// TestPaperBaselineMatchesNetwork pins the shipped paper-baseline.json
// to the built-in network spec at medium scale, as its description
// claims: at one seed both run the same campaign, so Figs. 1-3 agree on
// every metric the scenario emits. F3's rendering differs only in
// column order (the built-in prints the paper's EA, NA, WE, CE).
func TestPaperBaselineMatchesNetwork(t *testing.T) {
	set, err := Load("../../examples/scenarios/paper-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	network, ok := experiments.Lookup("network")
	if !ok {
		t.Fatal("no network spec")
	}
	const seed = 7
	got, err := specs[0].Run(seed, experiments.ScaleMedium)
	if err != nil {
		t.Fatal(err)
	}
	want, err := network.Run(seed, experiments.ScaleMedium)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*experiments.Outcome{}
	for _, o := range got {
		byID[o.ID] = o
	}
	for i, name := range []string{"propagation", "first_observation", "pool_first_observation"} {
		s, b := byID["paper-baseline/"+name], want[i]
		if s == nil {
			t.Fatalf("paper-baseline has no %s output", name)
		}
		for k, v := range s.Metrics {
			if bv, ok := b.Metrics[k]; !ok || bv != v {
				t.Errorf("%s %s: paper-baseline %v, network %v (present %v)", b.ID, k, v, bv, ok)
			}
		}
		if b.ID != "F3" && s.Rendered != b.Rendered {
			t.Errorf("%s rendering differs:\n%s\nvs\n%s", b.ID, s.Rendered, b.Rendered)
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
