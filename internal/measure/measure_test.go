package measure

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
	"repro/internal/types"
)

func buildNetwork(t *testing.T, seed uint64, nodes int) *p2p.Network {
	t.Helper()
	net := p2p.NewNetwork(sim.NewEngine(), sim.NewRNG(seed), geo.DefaultLatencyModel())
	placement, err := geo.PlaceNodes(nodes, geo.DefaultNodeShare)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range placement {
		if _, err := net.AddNode(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WireRandom(6); err != nil {
		t.Fatal(err)
	}
	return net
}

func testBlock(n uint64, label string, txs []*types.Transaction) *types.Block {
	return types.NewBlock(types.Header{
		ParentHash: types.HashBytes([]byte("parent")),
		Number:     n,
		Miner:      types.AddressFromString(label),
		MinerLabel: label,
		Difficulty: 1000,
		GasLimit:   8_000_000,
		GasUsed:    uint64(len(txs)) * types.TxGas,
	}, txs, nil)
}

func TestAttachValidation(t *testing.T) {
	net := buildNetwork(t, 1, 10)
	if _, err := Attach(nil, Options{Name: "NA", Region: geo.NorthAmerica}, geo.PerfectClock()); err == nil {
		t.Error("nil network must fail")
	}
	if _, err := Attach(net, Options{Region: geo.NorthAmerica}, geo.PerfectClock()); err == nil {
		t.Error("missing name must fail")
	}
	if _, err := Attach(net, Options{Name: "X", Region: geo.Region(99)}, geo.PerfectClock()); err == nil {
		t.Error("bad region must fail")
	}
	m, err := Attach(net, Options{Name: "NA", Region: geo.NorthAmerica, Peers: 5}, geo.PerfectClock())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "NA" || m.Region() != geo.NorthAmerica || m.Peer().PeerCount() != 5 {
		t.Fatal("attachment fields wrong")
	}
}

// forEachMode runs an observe test once keeping the raw log and once
// streaming. The fold is asserted in both; record assertions apply
// only where a log is kept.
func forEachMode(t *testing.T, f func(t *testing.T, streaming bool)) {
	t.Run("raw", func(t *testing.T) { f(t, false) })
	t.Run("streaming", func(t *testing.T) { f(t, true) })
}

// wantLog asserts Records() is non-empty exactly when the log is kept.
func wantLog(t *testing.T, m *Node, streaming bool) {
	t.Helper()
	if got := len(m.Records()); (got == 0) != streaming {
		t.Fatalf("%s: %d records with streaming=%v", m.Name(), got, streaming)
	}
}

func TestObserveBlocksAndAnnouncements(t *testing.T) {
	forEachMode(t, func(t *testing.T, streaming bool) {
		net := buildNetwork(t, 2, 60)
		m, err := Attach(net, Options{Name: "WE", Region: geo.WesternEurope, Peers: 25, Streaming: streaming}, geo.PerfectClock())
		if err != nil {
			t.Fatal(err)
		}
		blk := testBlock(1, "Ethermine", nil)
		net.Nodes()[0].InjectBlock(0, blk)
		net.Engine().Run()

		o := m.BlockObservations()[blk.Hash()]
		// With 25 peers the node must see several redundant deliveries
		// (Table II's phenomenon).
		if o == nil || o.Blocks+o.Announces < 3 {
			t.Fatalf("too few receptions: %+v", o)
		}
		if m.Blocks()[blk.Hash()] == nil {
			t.Fatal("full block content not captured")
		}
		wantLog(t, m, streaming)
		var blocks, announces int
		for _, r := range m.Records() {
			switch r.Kind {
			case KindBlock:
				blocks++
				if r.Miner != "Ethermine" || r.Number != 1 || r.Hash != blk.Hash().String() {
					t.Fatalf("bad block record: %+v", r)
				}
				if r.SizeBytes <= 0 {
					t.Fatal("block record missing size")
				}
			case KindAnnouncement:
				announces++
				if r.Hash != blk.Hash().String() {
					t.Fatal("bad announcement hash")
				}
			}
		}
		if !streaming && (blocks != o.Blocks || announces != o.Announces) {
			t.Fatalf("log has %d blocks, %d announces; fold %+v", blocks, announces, o)
		}
	})
}

func TestObserveTransactions(t *testing.T) {
	forEachMode(t, func(t *testing.T, streaming bool) {
		net := buildNetwork(t, 3, 40)
		m, err := Attach(net, Options{Name: "EA", Region: geo.EasternAsia, Peers: 10, Streaming: streaming}, geo.PerfectClock())
		if err != nil {
			t.Fatal(err)
		}
		tx := &types.Transaction{
			Sender: types.AddressFromString("alice"),
			To:     types.AddressFromString("bob"),
			Nonce:  7, GasPrice: 5, Gas: types.TxGas,
		}
		net.Nodes()[0].InjectTx(0, tx)
		net.Engine().Run()
		if o := m.TxObservations()[tx.Hash()]; o == nil || o.Nonce != 7 || o.Sender != tx.Sender.String() {
			t.Fatalf("bad tx observation: %+v", o)
		}
		wantLog(t, m, streaming)
		for _, r := range m.Records() {
			if r.Kind == KindTx && (r.Nonce != 7 || r.Sender != tx.Sender.String() || r.Hash != tx.Hash().String()) {
				t.Fatalf("bad tx record: %+v", r)
			}
		}
	})
}

func TestClockSkewAppliedToLocalTime(t *testing.T) {
	forEachMode(t, func(t *testing.T, streaming bool) {
		blk := testBlock(1, "Sparkpool", nil)
		run := func(clock geo.Clock) *Node {
			net := buildNetwork(t, 4, 20)
			m, err := Attach(net, Options{Name: "CE", Region: geo.CentralEurope, Peers: 5, Streaming: streaming}, clock)
			if err != nil {
				t.Fatal(err)
			}
			net.Nodes()[0].InjectBlock(0, blk)
			net.Engine().Run()
			return m
		}
		m, exact := run(geo.ClockWithOffset(42)), run(geo.PerfectClock())
		skewed, truth := m.BlockObservations()[blk.Hash()], exact.BlockObservations()[blk.Hash()]
		if skewed == nil || truth == nil || skewed.FirstLocal-truth.FirstLocal != 42 {
			t.Fatalf("skew not applied to the fold: %+v vs %+v", skewed, truth)
		}
		wantLog(t, m, streaming)
		for _, r := range m.Records() {
			if r.LocalMillis-r.TrueMillis != 42 {
				t.Fatalf("skew not applied: local %d true %d", r.LocalMillis, r.TrueMillis)
			}
			if r.LocalTime() != sim.Time(r.LocalMillis) {
				t.Fatal("LocalTime helper broken")
			}
		}
	})
}

func TestCaptureTxLinks(t *testing.T) {
	forEachMode(t, func(t *testing.T, streaming bool) {
		net := buildNetwork(t, 5, 20)
		withLinks, err := Attach(net, Options{Name: "A", Region: geo.NorthAmerica, Peers: 5, CaptureTxLinks: true, Streaming: streaming}, geo.PerfectClock())
		if err != nil {
			t.Fatal(err)
		}
		withoutLinks, err := Attach(net, Options{Name: "B", Region: geo.NorthAmerica, Peers: 5, Streaming: streaming}, geo.PerfectClock())
		if err != nil {
			t.Fatal(err)
		}
		txs := []*types.Transaction{{
			Sender: types.AddressFromString("alice"), To: types.AddressFromString("bob"),
			Nonce: 0, GasPrice: 1, Gas: types.TxGas,
		}}
		blk := testBlock(1, "F2pool2", txs)
		net.Nodes()[0].InjectBlock(0, blk)
		net.Engine().Run()
		check := func(m *Node, wantLinks bool) {
			t.Helper()
			if m.CaptureTxLinks() != wantLinks || m.Blocks()[blk.Hash()] == nil {
				t.Fatalf("%s: capture flag or retained body wrong", m.Name())
			}
			wantLog(t, m, streaming)
			for _, r := range m.Records() {
				if r.Kind != KindBlock {
					continue
				}
				if wantLinks && len(r.TxHashes) != 1 {
					t.Fatalf("%s: missing tx links", m.Name())
				}
				if !wantLinks && r.TxHashes != nil {
					t.Fatalf("%s: unexpected tx links", m.Name())
				}
				if r.TxCount != 1 {
					t.Fatalf("%s: tx count %d", m.Name(), r.TxCount)
				}
				return
			}
			if !streaming {
				t.Fatalf("%s: no block records", m.Name())
			}
		}
		check(withLinks, true)
		check(withoutLinks, false)
	})
}

// mixedRun drives one node through every message class the observer
// folds — pushed blocks and hash announcements under the default
// relay, transaction gossip, then compact blocks after the network
// switches protocol — and returns the node with a count of the kinds
// it was handed.
func mixedRun(t *testing.T, streaming bool) (*Node, map[p2p.MsgKind]int) {
	t.Helper()
	net := buildNetwork(t, 11, 80)
	m, err := Attach(net, Options{Name: "WE", Region: geo.WesternEurope, Peers: 30, CaptureTxLinks: true, Streaming: streaming}, geo.ClockWithOffset(-17))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[p2p.MsgKind]int{}
	m.Peer().SetObserver(func(now sim.Time, from p2p.NodeID, msg *p2p.Message) {
		kinds[msg.Kind]++
		m.observe(now, from, msg)
	})
	var txs []*types.Transaction
	for i := range 6 {
		tx := &types.Transaction{
			Sender: types.AddressFromString("alice"), To: types.AddressFromString("bob"),
			Nonce: uint64(i), GasPrice: 3, Gas: types.TxGas,
		}
		txs = append(txs, tx)
		net.Nodes()[i].InjectTx(sim.Time(i)*50*sim.Millisecond, tx)
	}
	net.Nodes()[7].InjectBlock(sim.Second, testBlock(1, "Ethermine", txs[:3]))
	net.Nodes()[9].InjectBlock(20*sim.Second, testBlock(2, "Sparkpool", nil))
	net.Engine().Run()
	net.SetRelay(relay.MustNew(relay.Config{Mode: relay.Compact}))
	net.Nodes()[11].InjectBlock(net.Engine().Now()+sim.Second, testBlock(3, "F2pool2", txs[3:]))
	net.Engine().Run()
	return m, kinds
}

// TestModesAgree: the fold — aggregates, retained bodies, quiet gap —
// is the same whether or not the raw log rides along, on a mix of
// every message class; only Records() tells the modes apart.
func TestModesAgree(t *testing.T) {
	raw, kinds := mixedRun(t, false)
	str, _ := mixedRun(t, true)
	for _, k := range []p2p.MsgKind{p2p.MsgNewBlock, p2p.MsgNewBlockHashes, p2p.MsgCompactBlock, p2p.MsgTransactions} {
		if kinds[k] == 0 {
			t.Fatalf("mix has no %v message: %v", k, kinds)
		}
	}
	if len(raw.BlockObservations()) != 3 || len(raw.TxObservations()) != 6 {
		t.Fatalf("fold saw %d blocks, %d txs", len(raw.BlockObservations()), len(raw.TxObservations()))
	}
	if !reflect.DeepEqual(raw.BlockObservations(), str.BlockObservations()) {
		t.Error("block aggregates differ between modes")
	}
	if !reflect.DeepEqual(raw.TxObservations(), str.TxObservations()) {
		t.Error("tx aggregates differ between modes")
	}
	if !reflect.DeepEqual(raw.Blocks(), str.Blocks()) {
		t.Error("retained bodies differ between modes")
	}
	if raw.MaxQuietGap() == 0 || raw.MaxQuietGap() != str.MaxQuietGap() {
		t.Errorf("quiet gap %v raw, %v streaming", raw.MaxQuietGap(), str.MaxQuietGap())
	}
	wantLog(t, raw, false)
	wantLog(t, str, true)
}

// TestRawLogPinned holds the raw log of the mixed run to the bytes the
// two-observer implementation wrote for it: folding first must not
// reorder, drop or re-field a single line.
func TestRawLogPinned(t *testing.T) {
	m, _ := mixedRun(t, false)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, m.Records()); err != nil {
		t.Fatal(err)
	}
	const want = "2f142e8fd5bada2e3b0c3eb96fed89de2bcc94eb2044c7e52032bde371085174"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("raw log of the pinned run changed: %d records, sha256 %s, want %s", len(m.Records()), got, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	records := []Record{
		{Node: "NA", Region: "NA", Kind: KindBlock, LocalMillis: 100, TrueMillis: 95,
			Hash: "0xabc", Number: 7, Miner: "Ethermine", TxCount: 3, Uncles: []string{"0xdef"}},
		{Node: "EA", Region: "EA", Kind: KindAnnouncement, LocalMillis: 50, Hash: "0xabc"},
		{Node: "WE", Region: "WE", Kind: KindTx, LocalMillis: 70, Hash: "0x123", Sender: "0xfeed", Nonce: 9},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, records); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("lines: %d", lines)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("records: %d", len(back))
	}
	if back[0].Miner != "Ethermine" || back[0].Number != 7 || len(back[0].Uncles) != 1 {
		t.Fatalf("block record corrupted: %+v", back[0])
	}
	if back[2].Nonce != 9 || back[2].Kind != KindTx {
		t.Fatalf("tx record corrupted: %+v", back[2])
	}
}

func TestReadJSONLSkipsBlanksRejectsGarbage(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader("\n\n{\"node\":\"NA\",\"kind\":\"block\"}\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank handling: %v, %d", err, len(got))
	}
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("garbage must error")
	}
	if !strings.Contains(err1(ReadJSONL(strings.NewReader("{}\nnope\n"))), "line 2") {
		t.Fatal("error should name the line")
	}
}

func err1(_ []Record, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestMeasurementNodeIsProtocolConformant(t *testing.T) {
	// A measurement node must relay blocks like any peer: a network
	// where the only path runs through the measurement node still
	// floods fully.
	net := p2p.NewNetwork(sim.NewEngine(), sim.NewRNG(6), geo.DefaultLatencyModel())
	a, err := net.AddNode(geo.NorthAmerica, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.AddNode(geo.EasternAsia, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Attach(net, Options{Name: "MID", Region: geo.WesternEurope}, geo.PerfectClock())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(a, m.Peer()); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(m.Peer(), b); err != nil {
		t.Fatal(err)
	}
	blk := testBlock(1, "Nanopool", nil)
	a.InjectBlock(0, blk)
	net.Engine().Run()
	if !b.KnowsBlock(blk.Hash()) {
		t.Fatal("measurement node failed to relay")
	}
}
