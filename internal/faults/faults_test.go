package faults

import (
	"errors"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildNetwork wires a small two-region overlay for injector tests.
func buildNetwork(t *testing.T, nodesPerRegion int) (*sim.Engine, *p2p.Network, []*p2p.Node) {
	t.Helper()
	engine := sim.NewEngine()
	rng := sim.NewRNG(7)
	net := p2p.NewNetwork(engine, rng.Fork("net"), geo.DefaultLatencyModel())
	var nodes []*p2p.Node
	for i := 0; i < nodesPerRegion; i++ {
		for _, r := range []geo.Region{geo.WesternEurope, geo.EasternAsia} {
			n, err := net.AddNode(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
	}
	if err := net.WireRandom(4); err != nil {
		t.Fatal(err)
	}
	return engine, net, nodes
}

func testBlock(num uint64) *types.Block {
	return types.NewBlock(types.Header{
		Number: num, MinerLabel: "Testpool", TimeMillis: num, Difficulty: 1, GasLimit: 8_000_000,
	}, nil, nil)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"empty", Config{}, false},
		{"crash ok", Config{Crash: &Crash{MeanBetween: sim.Second, MeanDowntime: sim.Second}}, true},
		{"crash zero interval", Config{Crash: &Crash{MeanDowntime: sim.Second}}, false},
		{"crash zero downtime", Config{Crash: &Crash{MeanBetween: sim.Second}}, false},
		{"partition ok", Config{Partitions: []Partition{{Start: 0, Duration: sim.Second, Regions: []geo.Region{geo.EasternAsia}}}}, true},
		{"partition empty side", Config{Partitions: []Partition{{Duration: sim.Second}}}, false},
		{"partition whole world", Config{Partitions: []Partition{{Duration: sim.Second, Regions: geo.Regions()}}}, false},
		{"partition dup region", Config{Partitions: []Partition{{Duration: sim.Second, Regions: []geo.Region{geo.EasternAsia, geo.EasternAsia}}}}, false},
		{"partition zero duration", Config{Partitions: []Partition{{Regions: []geo.Region{geo.EasternAsia}}}}, false},
		{"loss ok", Config{Loss: &Loss{DropProb: 0.1}}, true},
		{"loss prob too big", Config{Loss: &Loss{DropProb: 1.5}}, false},
		{"loss no knob", Config{Loss: &Loss{}}, false},
		{"churn ok", Config{Churn: &Churn{MeanBetween: sim.Second}}, true},
		{"churn zero interval", Config{Churn: &Churn{}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

// TestPartitionCrossingSendsDrop is the link-filter contract: while a
// partition is active, cross-side sends return ErrPartitioned and
// same-side sends pass; after the heal everything passes again.
func TestPartitionCrossingSendsDrop(t *testing.T) {
	engine, net, _ := buildNetwork(t, 4)
	cfg := Config{Partitions: []Partition{{
		Start:    100 * sim.Second,
		Duration: 50 * sim.Second,
		Regions:  []geo.Region{geo.EasternAsia, geo.Oceania},
	}}}
	inj, err := New(engine, sim.NewRNG(1), net, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	we, ea := net.NodeAt(0), net.NodeAt(1)
	if we.Region() != geo.WesternEurope || ea.Region() != geo.EasternAsia {
		t.Fatal("fixture regions shifted")
	}
	cases := []struct {
		name     string
		now      sim.Time
		from, to *p2p.Node
		wantErr  error
	}{
		{"before split, cross", 0, we, ea, nil},
		{"active, cross", 120 * sim.Second, we, ea, ErrPartitioned},
		{"active, cross reverse", 120 * sim.Second, ea, we, ErrPartitioned},
		{"active, same side", 120 * sim.Second, we, net.NodeAt(2), nil},
		{"active, isolated side internal", 120 * sim.Second, ea, net.NodeAt(3), nil},
		{"boundary start", 100 * sim.Second, we, ea, ErrPartitioned},
		{"boundary end (healed)", 150 * sim.Second, we, ea, nil},
		{"after heal", 200 * sim.Second, we, ea, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := inj.FilterLink(tc.now, tc.from, tc.to)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("FilterLink(%v, %s->%s) = %v, want %v",
					tc.now, tc.from.Region(), tc.to.Region(), err, tc.wantErr)
			}
		})
	}
	if got := inj.Stats().DroppedPartition; got != 3 {
		t.Fatalf("partition drop count %d, want 3", got)
	}
}

// TestCrashRecoverCycle drives the injector's crash process on a live
// engine: victims lose their connections while down, recover with a
// rewired peer table, and the books balance.
func TestCrashRecoverCycle(t *testing.T) {
	engine, net, nodes := buildNetwork(t, 8)
	cfg := Config{Crash: &Crash{
		MeanBetween:  2 * sim.Second,
		MeanDowntime: 5 * sim.Second,
	}}
	inj, err := New(engine, sim.NewRNG(3), net, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	engine.RunUntil(60 * sim.Second)
	inj.Stop()
	engine.Run() // drain pending recoveries
	inj.Finalize(engine.Now())

	st := inj.Stats()
	if st.Crashes == 0 {
		t.Fatal("no crashes after 60 s at a 2 s mean interval")
	}
	if st.Recoveries != st.Crashes {
		t.Fatalf("crashes %d vs recoveries %d after drain", st.Crashes, st.Recoveries)
	}
	if st.DownAtEnd != 0 {
		t.Fatalf("%d nodes still down after drain", st.DownAtEnd)
	}
	if st.CrashDowntime <= 0 {
		t.Fatal("no downtime accrued")
	}
	// Every node is back up. A few may be isolated — all their peers
	// crashed after their own rewire — but the overlay as a whole must
	// have been rewired back together.
	isolated := 0
	for _, n := range nodes {
		if n.Down() {
			t.Fatalf("node %d still down", n.ID())
		}
		if n.PeerCount() == 0 {
			isolated++
		}
	}
	if isolated > len(nodes)/4 {
		t.Fatalf("%d of %d nodes isolated after recovery", isolated, len(nodes))
	}
}

// TestRewireDialsDegreeLivePeers pins the one peer-selection rule of
// recovery and joins: an isolated node that rewires in an overlay with
// at least `degree` live nodes it is not connected to ends up with
// exactly `degree` peers, every one of them up.
func TestRewireDialsDegreeLivePeers(t *testing.T) {
	engine, net, nodes := buildNetwork(t, 20)
	const degree = 4
	cfg := Config{Crash: &Crash{MeanBetween: sim.Second, MeanDowntime: sim.Second}}
	inj, err := New(engine, sim.NewRNG(13), net, cfg, degree, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A third of the overlay stays down, so the uniform samples keep
	// landing on nodes rewire must skip.
	down := len(nodes) / 3
	for _, n := range nodes[:down] {
		net.CrashNode(n)
	}
	for _, n := range nodes[down:] {
		net.CrashNode(n)
		net.RecoverNode(n)
		inj.rewire(n)
		peers := 0
		for _, m := range nodes {
			if !net.Connected(n, m) {
				continue
			}
			peers++
			if m.Down() {
				t.Fatalf("node %d rewired to down node %d", n.ID(), m.ID())
			}
		}
		if peers != degree || n.PeerCount() != degree {
			t.Fatalf("node %d rewired to %d peers (PeerCount %d), want %d", n.ID(), peers, n.PeerCount(), degree)
		}
	}
}

// TestProtectedNodesNeverCrash pins the measurement/gateway exemption.
func TestProtectedNodesNeverCrash(t *testing.T) {
	engine, net, nodes := buildNetwork(t, 4)
	protected := nodes[:4]
	cfg := Config{
		Crash: &Crash{MeanBetween: sim.Second, MeanDowntime: 30 * sim.Second},
		Churn: &Churn{MeanBetween: sim.Second},
	}
	inj, err := New(engine, sim.NewRNG(5), net, cfg, 4, protected)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	engine.RunUntil(120 * sim.Second)
	inj.Stop()
	for _, n := range protected {
		if n.Down() {
			t.Fatalf("protected node %d crashed or departed", n.ID())
		}
	}
	if inj.Stats().Crashes == 0 || inj.Stats().Joins == 0 {
		t.Fatalf("fault processes idle: %+v", inj.Stats())
	}
}

// TestChurnGrowsAndShrinksOverlay checks joins add live wired nodes
// and leaves are permanent.
func TestChurnGrowsAndShrinksOverlay(t *testing.T) {
	engine, net, _ := buildNetwork(t, 8)
	before := net.Len()
	cfg := Config{Churn: &Churn{MeanBetween: sim.Second}}
	inj, err := New(engine, sim.NewRNG(9), net, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	engine.RunUntil(120 * sim.Second)
	inj.Stop()
	st := inj.Stats()
	if st.Joins == 0 || st.Leaves == 0 {
		t.Fatalf("churn produced joins=%d leaves=%d", st.Joins, st.Leaves)
	}
	if net.Len() != before+st.Joins {
		t.Fatalf("network len %d, want %d + %d joins", net.Len(), before, st.Joins)
	}
	live, down := 0, 0
	joinedWithPeers := 0
	for i := 0; i < net.Len(); i++ {
		n := net.NodeAt(i)
		if n.Down() {
			down++
			continue
		}
		live++
		if i >= before && n.PeerCount() > 0 {
			joinedWithPeers++
		}
	}
	if down != st.Leaves {
		t.Fatalf("%d down nodes, want %d departures", down, st.Leaves)
	}
	if joinedWithPeers == 0 {
		t.Fatal("no joined node holds a connection")
	}
}

// TestLossDropsAndDelays checks the loss model's two knobs through the
// filter interface.
func TestLossDropsAndDelays(t *testing.T) {
	engine, net, _ := buildNetwork(t, 4)
	cfg := Config{Loss: &Loss{DropProb: 0.5, ExtraDelayMean: 40 * sim.Millisecond}}
	inj, err := New(engine, sim.NewRNG(11), net, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.NodeAt(0), net.NodeAt(2)
	drops, delayed := 0, 0
	for i := 0; i < 2000; i++ {
		extra, err := inj.FilterLink(sim.Time(i), a, b)
		if err != nil {
			if !errors.Is(err, ErrLinkLoss) {
				t.Fatalf("unexpected error %v", err)
			}
			drops++
			continue
		}
		if extra > 0 {
			delayed++
		}
	}
	if drops < 800 || drops > 1200 {
		t.Fatalf("drop count %d far from 50%% of 2000", drops)
	}
	if delayed == 0 {
		t.Fatal("no surviving message picked up extra delay")
	}
	if got := inj.Stats().DroppedLoss; got != uint64(drops) {
		t.Fatalf("loss accounting %d, want %d", got, drops)
	}
}

// TestVisibilityDeferral pins the mining-side partition hook: updates
// crossing the active cut wait exactly until the heal.
func TestVisibilityDeferral(t *testing.T) {
	engine, net, _ := buildNetwork(t, 2)
	p := Partition{Start: 10 * sim.Second, Duration: 20 * sim.Second, Regions: []geo.Region{geo.EasternAsia}}
	inj, err := New(engine, sim.NewRNG(13), net, Config{Partitions: []Partition{p}}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := inj.VisibilityDeferral(5*sim.Second, geo.EasternAsia, geo.WesternEurope); d != 0 {
		t.Fatalf("deferral before split: %v", d)
	}
	if d := inj.VisibilityDeferral(15*sim.Second, geo.EasternAsia, geo.WesternEurope); d != 15*sim.Second {
		t.Fatalf("deferral mid-split: %v, want 15s", d)
	}
	if d := inj.VisibilityDeferral(15*sim.Second, geo.WesternEurope, geo.CentralEurope); d != 0 {
		t.Fatalf("deferral same side: %v", d)
	}
	if d := inj.VisibilityDeferral(35*sim.Second, geo.EasternAsia, geo.WesternEurope); d != 0 {
		t.Fatalf("deferral after heal: %v", d)
	}
}

// TestInjectorDeterminism runs the same fault schedule twice over
// identically seeded networks and demands identical event accounting
// and final topology.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (Stats, []int) {
		engine, net, _ := buildNetwork(t, 8)
		cfg := Config{
			Crash: &Crash{MeanBetween: 3 * sim.Second, MeanDowntime: 10 * sim.Second},
			Churn: &Churn{MeanBetween: 4 * sim.Second},
			Loss:  &Loss{DropProb: 0.01},
		}
		inj, err := New(engine, sim.NewRNG(21), net, cfg, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj.Start()
		// Interleave fault processing with protocol traffic so loss
		// draws interleave with crash/churn draws.
		for i := 0; i < 20; i++ {
			net.NodeAt(i%net.Len()).InjectBlock(engine.Now(), testBlock(uint64(i+1)))
			engine.RunFor(10 * sim.Second)
		}
		inj.Stop()
		engine.Run()
		inj.Finalize(engine.Now())
		degrees := make([]int, net.Len())
		for i := 0; i < net.Len(); i++ {
			degrees[i] = net.NodeAt(i).PeerCount()
		}
		return inj.Stats(), degrees
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("overlay size diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("node %d degree diverged: %d vs %d", i, d1[i], d2[i])
		}
	}
}
