package rewards

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/types"
)

func TestUncleRewardSchedule(t *testing.T) {
	s := DefaultSchedule()
	cases := []struct {
		uncle, include uint64
		wantNum        uint64 // numerator of reward/blockReward in eighths
	}{
		{9, 10, 7},  // depth 1: 7/8
		{9, 11, 6},  // depth 2: 6/8
		{9, 16, 0},  // depth 7: 1/8
		{9, 17, 99}, // depth 8: zero (sentinel below)
	}
	for _, c := range cases {
		got, err := s.UncleReward(c.uncle, c.include)
		if err != nil {
			t.Fatalf("(%d,%d): %v", c.uncle, c.include, err)
		}
		if c.wantNum == 99 {
			if got != 0 {
				t.Errorf("depth 8 must pay 0, got %d", got)
			}
			continue
		}
		if c.wantNum == 0 {
			// depth 7 pays 1/8.
			if got != s.BlockRewardGwei/8 {
				t.Errorf("depth 7: want %d, got %d", s.BlockRewardGwei/8, got)
			}
			continue
		}
		want := s.BlockRewardGwei / 8 * c.wantNum
		if got != want {
			t.Errorf("(%d,%d): want %d, got %d", c.uncle, c.include, want, got)
		}
	}
	if _, err := s.UncleReward(10, 10); err == nil {
		t.Error("same height must error")
	}
	if _, err := s.UncleReward(10, 5); err == nil {
		t.Error("inverted heights must error")
	}
}

func TestNephewReward(t *testing.T) {
	s := DefaultSchedule()
	if s.NephewReward() != BlockRewardGwei/32 {
		t.Fatalf("nephew: %d", s.NephewReward())
	}
}

// buildRevenueView: main chain A,B,A; one uncle by B at height 1
// (referenced at height 2), one one-miner uncle by A at height 3
// (referenced would need height 4; leave unreferenced), and a
// one-miner uncle by A at height 1 referenced at height 3.
func buildRevenueView() *analysis.ChainView {
	h := func(s string) types.Hash { return types.HashBytes([]byte(s)) }
	v := &analysis.ChainView{
		All:       map[types.Hash]analysis.BlockMeta{},
		UncleRefs: map[types.Hash]bool{},
		MainSet:   map[types.Hash]bool{},
	}
	add := func(meta analysis.BlockMeta, main bool) {
		v.All[meta.Hash] = meta
		if main {
			v.Main = append(v.Main, meta)
			v.MainSet[meta.Hash] = true
		}
	}
	add(analysis.BlockMeta{Hash: h("m1"), Parent: h("g"), Number: 1, Miner: "A", TxCount: 10}, true)
	add(analysis.BlockMeta{Hash: h("m2"), Parent: h("m1"), Number: 2, Miner: "B", TxCount: 5,
		Uncles: []types.Hash{h("uB")}}, true)
	add(analysis.BlockMeta{Hash: h("m3"), Parent: h("m2"), Number: 3, Miner: "A", TxCount: 0,
		Uncles: []types.Hash{h("uA")}}, true)
	// uB: B's stale sibling at height 1? No — uncle by C at height 1.
	add(analysis.BlockMeta{Hash: h("uB"), Parent: h("g"), Number: 1, Miner: "C", TxCount: 10}, false)
	// uA: A's own sibling at height 1, referenced at height 3 (a
	// one-miner uncle: A mined main height 1 too).
	add(analysis.BlockMeta{Hash: h("uA"), Parent: h("g"), Number: 1, Miner: "A", TxCount: 10}, false)
	v.UncleRefs[h("uB")] = true
	v.UncleRefs[h("uA")] = true
	return v
}

// TestAccounting prices a hand-built view the way INC does: the
// fold's reward tallies through Revenue.
func TestAccounting(t *testing.T) {
	const gasPrice = 10_000_000_000
	view := buildRevenueView()
	s := DefaultSchedule()
	tallies, err := analysis.FoldView(view).Rewards()
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Revenue(tallies, s, gasPrice)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := rev["A"], rev["B"], rev["C"]
	if a == nil || b == nil || c == nil {
		t.Fatalf("missing pools: %+v", rev)
	}
	if a.BlocksMined != 2 || b.BlocksMined != 1 || c.BlocksMined != 0 {
		t.Fatalf("mined: %d %d %d", a.BlocksMined, b.BlocksMined, c.BlocksMined)
	}
	// Static rewards.
	if a.BlockRewardGwei != 2*s.BlockRewardGwei || b.BlockRewardGwei != s.BlockRewardGwei {
		t.Fatal("block rewards wrong")
	}
	// Fees: A mined 10 + 0 txs, B mined 5.
	if a.FeeGwei != 10*types.TxGas*(gasPrice/WeiPerGwei) {
		t.Fatalf("A fees: %d", a.FeeGwei)
	}
	if b.FeeGwei != 5*types.TxGas*(gasPrice/WeiPerGwei) {
		t.Fatalf("B fees: %d", b.FeeGwei)
	}
	// Nephews: B referenced 1 uncle, A referenced 1.
	if b.NephewGwei != s.NephewReward() || a.NephewGwei != s.NephewReward() {
		t.Fatal("nephew rewards wrong")
	}
	// C's uncle at depth 1: 7/8 reward.
	if c.UncleGwei != s.BlockRewardGwei/8*7 {
		t.Fatalf("C uncle: %d", c.UncleGwei)
	}
	if c.OneMinerUncleGwei != 0 {
		t.Fatal("C has no one-miner revenue")
	}
	// A's own-sibling uncle at depth 2: 6/8 reward, all of it
	// one-miner revenue.
	if a.UncleGwei != s.BlockRewardGwei/8*6 {
		t.Fatalf("A uncle: %d", a.UncleGwei)
	}
	if a.OneMinerUncleGwei != a.UncleGwei {
		t.Fatalf("A one-miner split: %d vs %d", a.OneMinerUncleGwei, a.UncleGwei)
	}
	if a.UnclesRewarded != 1 || c.UnclesRewarded != 1 {
		t.Fatal("uncle counts wrong")
	}
	// Totals add up.
	if a.Total() != a.BlockRewardGwei+a.FeeGwei+a.NephewGwei+a.UncleGwei {
		t.Fatal("total wrong")
	}
}

func TestEmptyBlockTradeoff(t *testing.T) {
	// The paper's §III-C3 argument: fees are tiny vs the block
	// reward. 100 txs at 10 Gwei ≈ 0.021 ETH vs 2 ETH ≈ 1%.
	forgone, frac := EmptyBlockTradeoff(DefaultSchedule(), 100, 10_000_000_000)
	if forgone != 100*types.TxGas*10 { // 10 gwei gas price
		t.Fatalf("forgone: %d", forgone)
	}
	if frac < 0.005 || frac > 0.02 {
		t.Fatalf("fee fraction %v should be ~1%%", frac)
	}
	_, zero := EmptyBlockTradeoff(Schedule{}, 100, 1)
	if zero != 0 {
		t.Fatal("zero reward guard")
	}
}
