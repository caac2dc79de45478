package analysis

import (
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/stats"
)

// buildFullIndex fabricates a small but complete dataset that
// exercises every render path.
func buildFullIndex(t *testing.T) (*Index, *ChainView) {
	t.Helper()
	g := h("rg")
	var records []measure.Record
	parent := g
	for i := 1; i <= 16; i++ {
		miner := "Ethermine"
		if i%3 == 0 {
			miner = "Sparkpool"
		}
		bh := h("rblk" + string(rune('a'+i)))
		r := blockRec("EA", bh, parent, uint64(i), miner, int64(i)*13300, 1)
		r.TxHashes = []string{h("rtx" + string(rune('a'+i))).String()}
		records = append(records, r)
		r2 := blockRec("NA", bh, parent, uint64(i), miner, int64(i)*13300+80, 1)
		r2.TxHashes = r.TxHashes
		records = append(records, r2)
		txr := rec("EA", measure.KindTx, h("rtx"+string(rune('a'+i))), int64(i)*13300-4000)
		txr.Sender = "0xsender"
		txr.Nonce = uint64(i)
		records = append(records, txr)
		parent = bh
	}
	ds, err := FromRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ViewFromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	return idx, view
}

func TestRenderersProduceCompleteOutput(t *testing.T) {
	idx, view := buildFullIndex(t)

	prop, err := PropagationDelays(idx)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderPropagation(prop), "Figure 1", "median")

	first, err := FirstObservations(idx)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderFirstObservations(first), "Figure 2", "EA")

	pools, err := PoolFirstObservations(idx, 5)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderPoolObservations(pools, []string{"EA", "NA"}), "Figure 3", "Ethermine")

	red, err := Redundancy(idx, "EA")
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderRedundancy(red), "Table II", "Announcements", "Whole Blocks")

	commit, err := CommitTimes(idx, view)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderCommit(commit), "Figure 4", "inclusion", "3-confirmation")

	reorder, err := Reordering(idx, view)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderReordering(reorder), "Figure 5", "out-of-order")

	empty, err := FoldView(view).EmptyBlocks()
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderEmptyBlocks(empty, 5), "Figure 6", "Ethermine")

	forks, err := FoldView(view).Forks()
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderForks(forks), "Table III", "Fork Length")

	om, err := FoldView(view).OneMinerForks()
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderOneMinerForks(om), "One-miner", "recognized")

	seq, err := FoldView(view).Sequences()
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderSequences(seq, 5, 4), "Figure 7", "maxrun")

	censor, err := CensorshipWindows(seq, 5, 13.3)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, RenderCensorship(censor), "Security", "expected")

	tail := WholeChainTail(seq, 1)
	mustContain(t, RenderWholeChainTail(tail, seq.TotalMain), "Whole-chain", "len")
}

func TestRenderReorderingEmptyClasses(t *testing.T) {
	r := &ReorderingResult{
		InOrder:    stats.NewECDF(nil),
		OutOfOrder: stats.NewECDF(nil),
	}
	out := RenderReordering(r)
	if !strings.Contains(out, "no samples") {
		t.Fatalf("empty classes must render gracefully: %s", out)
	}
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}
