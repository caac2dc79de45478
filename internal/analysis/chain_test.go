package analysis

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/measure"
	"repro/internal/types"
)

// buildView constructs a ChainView by hand. mainMiners describes the
// main chain in height order; forks lists off-main blocks as
// (height, miner, parentOffset) where parentOffset is the main index
// of the parent. A recognized fork block is named as an uncle by the
// main-chain block one height above it.
type forkSpec struct {
	miner     string
	parentIdx int // index into main chain (parent height = idx)
	txCount   int
	recognize bool
}

func buildView(mainMiners []string, mainTxCounts []int, forks []forkSpec) *ChainView {
	v := &ChainView{
		All:       make(map[types.Hash]BlockMeta),
		UncleRefs: make(map[types.Hash]bool),
		MainSet:   make(map[types.Hash]bool),
	}
	parent := types.HashBytes([]byte("genesis"))
	hashes := []types.Hash{}
	for i, miner := range mainMiners {
		txc := 1
		if mainTxCounts != nil {
			txc = mainTxCounts[i]
		}
		hash := types.HashBytes([]byte("main" + string(rune('0'+i))))
		meta := BlockMeta{Hash: hash, Parent: parent, Number: uint64(i + 1), Miner: miner, TxCount: txc}
		v.Main = append(v.Main, meta)
		v.All[hash] = meta
		v.MainSet[hash] = true
		hashes = append(hashes, hash)
		parent = hash
	}
	for i, f := range forks {
		hash := types.HashBytes([]byte("fork" + string(rune('0'+i))))
		parentHash := types.HashBytes([]byte("genesis"))
		if f.parentIdx >= 0 {
			parentHash = hashes[f.parentIdx]
		}
		meta := BlockMeta{Hash: hash, Parent: parentHash, Number: uint64(f.parentIdx + 2), Miner: f.miner, TxCount: f.txCount}
		v.All[hash] = meta
		if f.recognize {
			// Named as an uncle by the main-chain block one height
			// above it, as UncleRefs records.
			namer := &v.Main[f.parentIdx+2]
			namer.Uncles = append(namer.Uncles, hash)
			v.All[namer.Hash] = *namer
			v.UncleRefs[hash] = true
		}
	}
	return v
}

func TestEmptyBlocks(t *testing.T) {
	view := buildView(
		[]string{"A", "A", "B", "C", "B"},
		[]int{1, 0, 2, 0, 0},
		nil,
	)
	res, err := FoldView(view).EmptyBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMain != 5 || res.TotalEmpty != 3 {
		t.Fatalf("totals: %d/%d", res.TotalEmpty, res.TotalMain)
	}
	if !almost(res.Fraction, 0.6) {
		t.Fatalf("fraction: %v", res.Fraction)
	}
	if res.PerPool["A"].Empty != 1 || res.PerPool["A"].Mined != 2 {
		t.Fatalf("pool A: %+v", res.PerPool["A"])
	}
	if !almost(res.PerPool["C"].Rate(), 1) {
		t.Fatalf("pool C rate: %v", res.PerPool["C"].Rate())
	}
	if (PoolEmptyCount{}).Rate() != 0 {
		t.Fatal("zero-mined rate")
	}
	// Sorted by production.
	if res.Pools[0] != "A" && res.Pools[0] != "B" {
		t.Fatalf("pool order: %v", res.Pools)
	}
	if _, err := FoldView(nil).EmptyBlocks(); !errors.Is(err, ErrNoBlocks) {
		t.Fatal("nil view must fail")
	}
}

func TestForksTableIII(t *testing.T) {
	// Main chain of 8; one recognized length-1 fork, one unrecognized
	// length-1 fork, one length-2 branch (parent at main[2]).
	view := buildView(
		[]string{"A", "B", "A", "C", "B", "A", "C", "B"},
		nil,
		[]forkSpec{
			{miner: "B", parentIdx: 0, txCount: 1, recognize: true},
			{miner: "C", parentIdx: 4, txCount: 1, recognize: false},
		},
	)
	// Hand-build the length-2 branch: f2 -> f3.
	f2 := BlockMeta{Hash: types.HashBytes([]byte("len2a")), Parent: view.Main[2].Hash, Number: 4, Miner: "D", TxCount: 1}
	f3 := BlockMeta{Hash: types.HashBytes([]byte("len2b")), Parent: f2.Hash, Number: 5, Miner: "D", TxCount: 1}
	view.All[f2.Hash] = f2
	view.All[f3.Hash] = f3

	res, err := FoldView(view).Forks()
	if err != nil {
		t.Fatal(err)
	}
	if res.MainBlocks != 8 {
		t.Fatalf("main: %d", res.MainBlocks)
	}
	if res.UncleBlocks != 1 || res.UnrecognizedBlocks != 3 {
		t.Fatalf("uncles %d unrecognized %d", res.UncleBlocks, res.UnrecognizedBlocks)
	}
	if res.ByLength[1].Total != 2 || res.ByLength[1].Recognized != 1 {
		t.Fatalf("len1: %+v", res.ByLength[1])
	}
	if res.ByLength[2].Total != 1 || res.ByLength[2].Recognized != 0 {
		t.Fatalf("len2: %+v", res.ByLength[2])
	}
	if len(res.Branches) != 3 {
		t.Fatalf("branches: %d", len(res.Branches))
	}
	if _, err := FoldView(nil).Forks(); !errors.Is(err, ErrNoBlocks) {
		t.Fatal("nil view must fail")
	}
}

func TestOneMinerForks(t *testing.T) {
	// Height 2: miner A mined the main block AND a fork version with
	// the same tx count (same-set pair, recognized).
	// Height 5: miner B mined main + fork with different tx count.
	view := buildView(
		[]string{"A", "A", "B", "C", "B"},
		[]int{1, 2, 1, 1, 3},
		[]forkSpec{
			{miner: "A", parentIdx: 0, txCount: 2, recognize: true},
			{miner: "B", parentIdx: 3, txCount: 1, recognize: false},
		},
	)
	res, err := FoldView(view).OneMinerForks()
	if err != nil {
		t.Fatal(err)
	}
	if res.TupleCounts[2] != 2 {
		t.Fatalf("pairs: %+v", res.TupleCounts)
	}
	// One of two extras recognized.
	if !almost(res.RecognizedFraction, 0.5) {
		t.Fatalf("recognized: %v", res.RecognizedFraction)
	}
	// A's pair has matching tx counts, B's differs.
	if !almost(res.SameTxSetFraction, 0.5) {
		t.Fatalf("same tx: %v", res.SameTxSetFraction)
	}
	// Both forked heights are one-miner forks here.
	if !almost(res.FractionOfForks, 1) {
		t.Fatalf("fraction of forks: %v", res.FractionOfForks)
	}
	if _, err := FoldView(nil).OneMinerForks(); !errors.Is(err, ErrNoBlocks) {
		t.Fatal("nil view must fail")
	}
}

func TestOneMinerForksTxHashComparison(t *testing.T) {
	view := buildView([]string{"A"}, []int{2}, nil)
	main := view.Main[0]
	main.TxHashes = []types.Hash{h("t1"), h("t2")}
	view.All[main.Hash] = main
	view.Main[0] = main
	// Same count, different hash set => different tx set.
	fork := BlockMeta{
		Hash: h("forkX"), Parent: main.Parent, Number: main.Number,
		Miner: "A", TxCount: 2, TxHashes: []types.Hash{h("t1"), h("t3")},
	}
	view.All[fork.Hash] = fork
	res, err := FoldView(view).OneMinerForks()
	if err != nil {
		t.Fatal(err)
	}
	if res.SameTxSetFraction != 0 {
		t.Fatalf("hash comparison must beat count comparison: %v", res.SameTxSetFraction)
	}
}

func TestSequencesAndCDF(t *testing.T) {
	view := buildView([]string{"A", "A", "A", "B", "A", "B", "B"}, nil, nil)
	res, err := FoldView(view).Sequences()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRun["A"] != 3 || res.MaxRun["B"] != 2 {
		t.Fatalf("max runs: %+v", res.MaxRun)
	}
	if res.TopPools[0] != "A" {
		t.Fatalf("top pools: %v", res.TopPools)
	}
	// A's runs: [3,1] => CDF(1)=0.5, CDF(3)=1.
	if !almost(res.CDF("A", 1), 0.5) || !almost(res.CDF("A", 3), 1) {
		t.Fatalf("cdf: %v %v", res.CDF("A", 1), res.CDF("A", 3))
	}
	if res.CDF("missing", 5) != 0 {
		t.Fatal("missing pool CDF must be 0")
	}
	if _, err := FoldView(nil).Sequences(); !errors.Is(err, ErrNoBlocks) {
		t.Fatal("empty main chain must fail")
	}
}

func TestCensorshipWindows(t *testing.T) {
	view := buildView([]string{"A", "A", "A", "B", "A", "B", "B"}, nil, nil)
	seq, err := FoldView(view).Sequences()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CensorshipWindows(seq, 5, 13.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no censorship rows")
	}
	for _, row := range res {
		if row.Length < 2 || row.Observed < 1 || row.Expected <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
		if !almost(row.CensorSeconds, float64(row.Length)*13.3) {
			t.Fatalf("censor window: %+v", row)
		}
	}
	if _, err := CensorshipWindows(nil, 5, 13.3); err == nil {
		t.Fatal("nil seq must fail")
	}
	if _, err := CensorshipWindows(seq, 0, 13.3); err == nil {
		t.Fatal("bad topN must fail")
	}
}

func TestWholeChainTail(t *testing.T) {
	view := buildView([]string{"A", "A", "A", "B", "A", "A"}, nil, nil)
	seq, err := FoldView(view).Sequences()
	if err != nil {
		t.Fatal(err)
	}
	tail := WholeChainTail(seq, 2)
	if tail[3] != 1 || tail[2] != 1 {
		t.Fatalf("tail: %v", tail)
	}
	if len(WholeChainTail(seq, 10)) != 0 {
		t.Fatal("high threshold must be empty")
	}
}

func TestViewFromTree(t *testing.T) {
	g := chain.NewGenesis(1000, 8_000_000)
	tree := chain.NewBlockTree(g)
	b1 := types.NewBlock(types.Header{ParentHash: g.Hash(), Number: 1, MinerLabel: "A", Difficulty: 1000, GasLimit: 8_000_000}, nil, nil)
	if _, err := tree.Add(b1); err != nil {
		t.Fatal(err)
	}
	side := types.NewBlock(types.Header{ParentHash: g.Hash(), Number: 1, MinerLabel: "B", Difficulty: 900, GasLimit: 8_000_000}, nil, nil)
	if _, err := tree.Add(side); err != nil {
		t.Fatal(err)
	}
	b2 := types.NewBlock(types.Header{ParentHash: b1.Hash(), Number: 2, MinerLabel: "A", Difficulty: 1000, GasLimit: 8_000_000}, nil, []types.Header{side.Header})
	if _, err := tree.Add(b2); err != nil {
		t.Fatal(err)
	}
	view, err := ViewFromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Main) != 2 {
		t.Fatalf("main: %d", len(view.Main))
	}
	if len(view.All) != 3 {
		t.Fatalf("all: %d", len(view.All))
	}
	if !view.UncleRefs[side.Hash()] {
		t.Fatal("uncle reference missing")
	}
	if !view.MainSet[b1.Hash()] || view.MainSet[side.Hash()] {
		t.Fatal("main set wrong")
	}
	if _, err := ViewFromTree(nil); err == nil {
		t.Fatal("nil tree must fail")
	}
}

func TestViewFromIndex(t *testing.T) {
	g := h("genesis")
	b1, b2, side := h("b1"), h("b2"), h("side")
	records := []measure.Record{
		blockRec("NA", b1, g, 1, "A", 10, 1),
		blockRec("NA", side, g, 1, "B", 12, 1),
		blockRec("NA", b2, b1, 2, "A", 20, 1),
		blockRec("EA", b2, b1, 2, "A", 25, 1),
	}
	// b2 references side as uncle.
	records[2].Uncles = []string{side.String()}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ViewFromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Main) != 2 || view.Main[0].Hash != b1 || view.Main[1].Hash != b2 {
		t.Fatalf("main: %+v", view.Main)
	}
	if !view.UncleRefs[side] {
		t.Fatal("uncle refs missing")
	}
	if view.MainSet[side] {
		t.Fatal("side on main")
	}
	if _, err := ViewFromIndex(nil); !errors.Is(err, ErrNoBlocks) {
		t.Fatal("nil index must fail")
	}
}

func TestCommitTimes(t *testing.T) {
	g := h("genesis")
	// Chain b1..b15, tx t1 included in b1 observed at t=0s,
	// blocks observed at 10s, 20s, ... 150s.
	var records []measure.Record
	parent := g
	var blockHashes []types.Hash
	for i := 1; i <= 15; i++ {
		bh := h("blk" + string(rune('a'+i)))
		r := blockRec("NA", bh, parent, uint64(i), "A", int64(i*10_000), 1)
		if i == 1 {
			r.TxHashes = []string{h("t1").String()}
		} else {
			r.TxHashes = []string{h("tx-filler" + string(rune('a'+i))).String()}
		}
		records = append(records, r)
		blockHashes = append(blockHashes, bh)
		parent = bh
	}
	txr := rec("NA", measure.KindTx, h("t1"), 2_000)
	txr.Sender = "0xaa"
	txr.Nonce = 0
	records = append(records, txr)
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ViewFromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CommitTimes(idx, view)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txs < 1 {
		t.Fatal("no txs resolved")
	}
	// t1: seen at 2s, included at 10s => inclusion 8s.
	v, err := res.Inclusion.Value(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 8 {
		t.Fatalf("inclusion median: %v", v)
	}
	// 3-conf: b4 observed at 40s => 38s.
	conf3 := res.Confirmations[3]
	if conf3 == nil {
		t.Fatal("missing 3-conf")
	}
	v3, err := conf3.Value(1)
	if err != nil {
		t.Fatal(err)
	}
	if v3 != 38 {
		t.Fatalf("3-conf: %v", v3)
	}
	// 12-conf: b13 at 130s => 128s.
	v12, err := res.Confirmations[12].Value(1)
	if err != nil || v12 != 128 {
		t.Fatalf("12-conf: %v, %v", v12, err)
	}
	// 36-conf unreachable in a 15-block window.
	if _, ok := res.Confirmations[36]; ok {
		t.Fatal("36-conf should be censored out")
	}
	_ = blockHashes
}

func TestCommitTimesRequiresLinks(t *testing.T) {
	records := []measure.Record{
		blockRec("NA", h("b1"), h("g"), 1, "A", 10, 1),
		rec("NA", measure.KindTx, h("t1"), 2),
	}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ViewFromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommitTimes(idx, view); err == nil {
		t.Fatal("missing tx links must fail")
	}
	if _, err := CommitTimes(nil, view); err == nil {
		t.Fatal("nil index must fail")
	}
}

func TestReordering(t *testing.T) {
	g := h("genesis")
	var records []measure.Record
	parent := g
	// 14 blocks at 10s intervals; block 1 contains t-late (nonce 0)
	// and t-early (nonce 1) from the same sender; t-early was
	// observed first.
	for i := 1; i <= 14; i++ {
		bh := h("rblk" + string(rune('a'+i)))
		r := blockRec("NA", bh, parent, uint64(i), "A", int64(i*10_000), 1)
		if i == 1 {
			r.TxHashes = []string{h("t-late").String(), h("t-early").String()}
		}
		records = append(records, r)
		parent = bh
	}
	early := rec("NA", measure.KindTx, h("t-early"), 1_000)
	early.Sender = "0xaa"
	early.Nonce = 1
	late := rec("NA", measure.KindTx, h("t-late"), 3_000)
	late.Sender = "0xaa"
	late.Nonce = 0
	records = append(records, early, late)

	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ViewFromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reordering(idx, view)
	if err != nil {
		t.Fatal(err)
	}
	// The pair (nonce 1 observed before nonce 0) is out of order:
	// exactly one of the two committed txs gets flagged — the one
	// observed while a higher same-sender nonce was already known.
	if res.OutOfOrderCount+res.InOrderCount < 2 {
		t.Fatalf("counts: %d + %d", res.OutOfOrderCount, res.InOrderCount)
	}
	if res.OutOfOrderFraction <= 0 || res.OutOfOrderFraction >= 1 {
		t.Fatalf("fraction: %v", res.OutOfOrderFraction)
	}
	if _, err := Reordering(nil, view); err == nil {
		t.Fatal("nil index must fail")
	}
}

// TestForksGenesisParentQuirk: a view excludes genesis from its
// blocks, so an off-main block whose parent is genesis hangs from no
// main-chain block the view holds. It is counted — here as a
// recognized uncle — and it opens a length-1 branch rooted at genesis,
// the main chain's block at height 0, so Table III's length-1 row
// counts it. The settled fold skips genesis too and agrees byte for
// byte.
func TestForksGenesisParentQuirk(t *testing.T) {
	g := chain.NewGenesis(1000, 8_000_000)
	tree := chain.NewBlockTree(g)
	mk := func(parent *types.Block, miner string, difficulty uint64, uncles ...types.Header) *types.Block {
		b := types.NewBlock(types.Header{ParentHash: parent.Hash(), Number: parent.Header.Number + 1,
			MinerLabel: miner, Difficulty: difficulty, GasLimit: 8_000_000}, nil, uncles)
		if _, err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1 := mk(g, "A", 1000)
	onGenesis := mk(g, "B", 900)
	b2 := mk(b1, "A", 1000, onGenesis.Header)
	onMain := mk(b1, "C", 900)
	mk(b2, "A", 1000)

	view, err := ViewFromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	forks, err := FoldView(view).Forks()
	if err != nil {
		t.Fatal(err)
	}
	if forks.MainBlocks != 3 || forks.UncleBlocks != 1 || forks.UnrecognizedBlocks != 1 {
		t.Fatalf("main %d uncles %d unrecognized %d, want 3, 1 (the block on genesis), 1",
			forks.MainBlocks, forks.UncleBlocks, forks.UnrecognizedBlocks)
	}
	roots := map[types.Hash]bool{}
	for _, br := range forks.Branches {
		if br.Length != 1 {
			t.Fatalf("branch %+v, want length 1", br)
		}
		roots[br.Blocks[0]] = true
	}
	if len(forks.Branches) != 2 || !roots[onGenesis.Hash()] || !roots[onMain.Hash()] {
		t.Fatalf("branches %+v: want the one off genesis and the one off b1", forks.Branches)
	}
	if got := forks.ByLength[1]; got != (ForkLengthCount{Total: 2, Recognized: 1, Unrecognized: 1}) {
		t.Fatalf("length-1 row %+v", got)
	}

	var fold ChainFold
	tree.Flush(fold.Settled)
	settled, err := fold.Forks()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(settled, forks) {
		t.Fatalf("settled fold %+v, view %+v", settled, forks)
	}
}
