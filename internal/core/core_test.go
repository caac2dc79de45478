package core

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/mining"
	"repro/internal/sim"
	"repro/internal/txgen"
)

// records concatenates the measurement nodes' raw logs in attach
// order.
func records(res *CampaignResult) []measure.Record {
	var out []measure.Record
	for _, n := range res.Nodes {
		out = append(out, n.Records()...)
	}
	return out
}

// runWithTree runs a campaign and returns its result with the
// simulation's ground-truth block tree, which the original study could
// not see.
func runWithTree(t *testing.T, cfg CampaignConfig) (*CampaignResult, *chain.BlockTree) {
	t.Helper()
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, c.miners.Tree()
}

// smallCampaign returns a fast configuration for tests.
func smallCampaign(seed uint64) CampaignConfig {
	cfg := DefaultCampaignConfig(seed)
	cfg.NetworkNodes = 150
	cfg.Degree = 6
	cfg.Measurement = PaperMeasurementSpecs(30)
	cfg.Blocks = 60
	return cfg
}

func TestNewCampaignValidation(t *testing.T) {
	bad := []func(*CampaignConfig){
		func(c *CampaignConfig) { c.NetworkNodes = 5 },
		func(c *CampaignConfig) { c.Degree = 0 },
		func(c *CampaignConfig) { c.Blocks = 0 },
		func(c *CampaignConfig) { c.Measurement = nil },
		func(c *CampaignConfig) { c.Mining.Pools = nil },
	}
	for i, mutate := range bad {
		cfg := smallCampaign(1)
		mutate(&cfg)
		if _, err := NewCampaign(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	res, tree := runWithTree(t, smallCampaign(2))
	if len(res.Nodes) != 4 {
		t.Fatalf("nodes: %d", len(res.Nodes))
	}
	if len(records(res)) == 0 {
		t.Fatal("no records")
	}
	if res.MessagesSent == 0 || res.BytesSent == 0 {
		t.Fatal("no transport activity")
	}
	// The log-reconstructed chain must agree with ground truth on the
	// main chain, modulo the unstable tip.
	truthMain := tree.MainChain()
	viewMain := res.View.Main
	if len(viewMain) < len(truthMain)-3 {
		t.Fatalf("reconstructed chain too short: %d vs %d", len(viewMain), len(truthMain))
	}
	for i := 0; i < len(viewMain)-2 && i+1 < len(truthMain); i++ {
		if viewMain[i].Hash != truthMain[i+1].Hash() { // +1 skips genesis
			t.Fatalf("main chain mismatch at %d", i)
		}
	}
	// Every figure-1/2 analysis must run on the result.
	if _, err := analysis.PropagationDelays(res.Index); err != nil {
		t.Fatalf("fig1: %v", err)
	}
	first, err := analysis.FirstObservations(res.Index)
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	var total float64
	for _, share := range first.Share {
		total += share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("first-observation shares sum to %v", total)
	}
}

func TestCampaignWithWorkload(t *testing.T) {
	cfg := smallCampaign(3)
	cfg.Blocks = 80
	wl := txgen.DefaultConfig()
	wl.Senders = 100
	wl.MeanInterArrival = 400 // ~2.5 tx/s
	if testing.Short() {
		// Transaction gossip dominates the cost; a thinner workload
		// over fewer blocks keeps the asserted properties (txs commit,
		// fig. 4/5 analyses run) while fitting the CI tier.
		cfg.Blocks = 40
		wl.Senders = 40
		wl.MeanInterArrival = 1600 // ~0.6 tx/s
	}
	cfg.Workload = &wl
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TxRecords) == 0 {
		t.Fatal("no workload records")
	}
	commits, err := analysis.CommitTimes(res.Index, res.View)
	if err != nil {
		t.Fatalf("fig4: %v", err)
	}
	if commits.Txs == 0 {
		t.Fatal("no committed txs resolved")
	}
	if _, err := analysis.Reordering(res.Index, res.View); err != nil {
		t.Fatalf("fig5: %v", err)
	}
}

func TestCampaignDeterministicReplay(t *testing.T) {
	r1, t1 := runWithTree(t, smallCampaign(7))
	r2, t2 := runWithTree(t, smallCampaign(7))
	if t1.Head().Hash() != t2.Head().Hash() {
		t.Fatal("chains diverged")
	}
	if len(records(r1)) != len(records(r2)) {
		t.Fatal("logs diverged")
	}
	if r1.MessagesSent != r2.MessagesSent {
		t.Fatal("transport diverged")
	}
}

// withPerfectClocks gives every measurement node a perfect clock until
// the test ends. The NTP draw still happens, so every other stream
// keeps its position.
func withPerfectClocks(t *testing.T) {
	t.Helper()
	sampled := newClock
	newClock = func(rng *sim.RNG) geo.Clock {
		sampled(rng)
		return geo.PerfectClock()
	}
	t.Cleanup(func() { newClock = sampled })
}

func TestCampaignPerfectClocks(t *testing.T) {
	withPerfectClocks(t)
	res, err := RunCampaign(smallCampaign(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records(res) {
		if r.LocalMillis != r.TrueMillis {
			t.Fatal("perfect clocks must not skew")
		}
	}
}

func TestRunChainOnly(t *testing.T) {
	res, err := RunChainOnly(5, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := analysis.ViewFromTree(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	// ~6-7% of produced heights fork off-main, so expect ~1860+.
	if len(view.Main) < 1800 {
		t.Fatalf("main chain: %d", len(view.Main))
	}
	// Chain-level analyses must all run.
	fold := analysis.FoldView(view)
	if _, err := fold.EmptyBlocks(); err != nil {
		t.Fatalf("fig6: %v", err)
	}
	if _, err := fold.Forks(); err != nil {
		t.Fatalf("table3: %v", err)
	}
	if _, err := fold.Sequences(); err != nil {
		t.Fatalf("fig7: %v", err)
	}
	if _, err := fold.OneMinerForks(); err != nil {
		t.Fatalf("one-miner: %v", err)
	}
	if _, err := RunChainOnly(5, 0, nil); err == nil {
		t.Fatal("zero blocks must fail")
	}
	// Mutators apply.
	res2, err := RunChainOnly(5, 100, func(c *mining.Config) {
		c.Pools = []mining.PoolConfig{{
			Name: "Solo", HashrateShare: 1,
			GatewayRegions: []geo.Region{geo.NorthAmerica},
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res2.Tree.MainChain()[1:] {
		if b.Header.MinerLabel != "Solo" {
			t.Fatal("mutator ignored")
		}
	}
}

func TestInfrastructureTable(t *testing.T) {
	specs := InfrastructureSpecs()
	if len(specs) != 4 {
		t.Fatalf("rows: %d", len(specs))
	}
	if specs[3].Location != "WE" || specs[3].RAMGB != 128 {
		t.Fatalf("WE row: %+v", specs[3])
	}
	out := RenderInfrastructure()
	for _, want := range []string{"NA", "EA", "CE", "WE", "Bandwidth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
