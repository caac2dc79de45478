package analysis

import (
	"errors"
	"math"
	"testing"

	"repro/internal/measure"
	"repro/internal/types"
)

// rec builds a block/announcement/tx record at a local time.
func rec(node string, kind measure.RecordKind, hash types.Hash, localMillis int64) measure.Record {
	return measure.Record{
		Node:        node,
		Region:      node,
		Kind:        kind,
		LocalMillis: localMillis,
		TrueMillis:  localMillis,
		Hash:        hash.String(),
	}
}

func blockRec(node string, hash, parent types.Hash, number uint64, miner string, localMillis int64, txCount int) measure.Record {
	r := rec(node, measure.KindBlock, hash, localMillis)
	r.ParentHash = parent.String()
	r.Number = number
	r.Miner = miner
	r.TxCount = txCount
	r.SizeBytes = 600
	return r
}

func h(label string) types.Hash { return types.HashBytes([]byte(label)) }

func TestBuildIndexBasics(t *testing.T) {
	b1 := h("b1")
	records := []measure.Record{
		blockRec("NA", b1, h("g"), 1, "Ethermine", 100, 2),
		rec("EA", measure.KindAnnouncement, b1, 50),
		blockRec("EA", b1, h("g"), 1, "Ethermine", 60, 2),
		rec("WE", measure.KindTx, h("t1"), 70),
	}
	ds, err := FromRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	// EA's first sighting is the announcement at 50, not the block at
	// 60.
	if obs := idx.BlockFirst[b1]["EA"]; obs.Local != 50 || obs.Kind != measure.KindAnnouncement {
		t.Fatalf("EA first: %+v", obs)
	}
	if obs := idx.BlockFirst[b1]["NA"]; obs.Local != 100 {
		t.Fatalf("NA first: %+v", obs)
	}
	first, ok := EarliestObservation(idx.BlockFirst[b1])
	if !ok || first.Node != "EA" || first.Local != 50 {
		t.Fatalf("earliest: %+v", first)
	}
	if idx.BlockMeta[b1].Miner != "Ethermine" || idx.BlockMeta[b1].TxCount != 2 {
		t.Fatalf("meta: %+v", idx.BlockMeta[b1])
	}
	if _, ok := idx.TxMeta[h("t1")]; !ok {
		t.Fatal("tx meta missing")
	}
}

func TestBuildIndexErrors(t *testing.T) {
	if _, err := BuildIndex(nil); err == nil {
		t.Error("nil dataset must fail")
	}
	if _, err := BuildIndex(&Dataset{}); err == nil {
		t.Error("empty dataset must fail")
	}
	bad := []measure.Record{{Node: "NA", Kind: measure.KindBlock, Hash: "nope"}}
	if _, err := BuildIndex(&Dataset{Records: bad}); err == nil {
		t.Error("malformed hash must fail")
	}
	txOnly := []measure.Record{rec("NA", measure.KindTx, h("t"), 5)}
	if _, err := BuildIndex(&Dataset{Records: txOnly}); !errors.Is(err, ErrNoBlocks) {
		t.Errorf("tx-only dataset: %v", err)
	}
}

func TestIndexFromStreamsRequiresNodes(t *testing.T) {
	if _, err := IndexFromStreams(nil); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("want ErrNoNodes, got %v", err)
	}
}

func TestFromRecordsRequiresRecords(t *testing.T) {
	if _, err := FromRecords(nil); err == nil {
		t.Fatal("empty must fail")
	}
	ds, err := FromRecords([]measure.Record{rec("B", measure.KindTx, h("t"), 1), rec("A", measure.KindTx, h("t"), 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.NodeNames) != 2 || ds.NodeNames[0] != "A" {
		t.Fatalf("node names: %v", ds.NodeNames)
	}
}

func TestPropagationDelays(t *testing.T) {
	b1, b2 := h("b1"), h("b2")
	records := []measure.Record{
		blockRec("EA", b1, h("g"), 1, "Sparkpool", 1000, 1),
		blockRec("NA", b1, h("g"), 1, "Sparkpool", 1080, 1),
		blockRec("WE", b1, h("g"), 1, "Sparkpool", 1050, 1),
		blockRec("EA", b2, b1, 2, "Sparkpool", 5000, 1),
		blockRec("NA", b2, b1, 2, "Sparkpool", 5200, 1),
	}
	ds, err := FromRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PropagationDelays(idx)
	if err != nil {
		t.Fatal(err)
	}
	// Samples: b1 -> {80, 50}, b2 -> {200}.
	if res.Summary.Count != 3 {
		t.Fatalf("count: %d", res.Summary.Count)
	}
	if !almost(res.Summary.Median, 80) || !almost(res.Summary.Max, 200) || !almost(res.Summary.Min, 50) {
		t.Fatalf("summary: %+v", res.Summary)
	}
	if res.Histogram.Total() != 3 {
		t.Fatalf("hist total: %d", res.Histogram.Total())
	}
}

func TestPropagationNegativeSkewClamped(t *testing.T) {
	// Two nodes observing "simultaneously" with skewed clocks can
	// produce inverted local orderings; the pipeline clamps at 0.
	b1 := h("b1")
	records := []measure.Record{
		blockRec("NA", b1, h("g"), 1, "X", 100, 0),
		blockRec("EA", b1, h("g"), 1, "X", 100, 0),
	}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PropagationDelays(idx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Min < 0 {
		t.Fatal("negative delay leaked")
	}
}

func TestPropagationNeedsTwoNodes(t *testing.T) {
	records := []measure.Record{blockRec("NA", h("b"), h("g"), 1, "X", 1, 0)}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PropagationDelays(idx); !errors.Is(err, ErrNoBlocks) {
		t.Fatalf("single-node dataset: %v", err)
	}
	if _, err := PropagationDelays(nil); err == nil {
		t.Fatal("nil index must fail")
	}
}

func TestFirstObservations(t *testing.T) {
	records := []measure.Record{}
	// 6 blocks first seen at EA, 2 at NA, 2 at WE; all margins wide.
	for i := 0; i < 10; i++ {
		bh := h(string(rune('a' + i)))
		base := int64(i * 20000)
		winner := "EA"
		if i >= 6 && i < 8 {
			winner = "NA"
		} else if i >= 8 {
			winner = "WE"
		}
		records = append(records, blockRec(winner, bh, h("g"), uint64(i+1), "X", base, 0))
		for _, other := range []string{"EA", "NA", "WE"} {
			if other != winner {
				records = append(records, blockRec(other, bh, h("g"), uint64(i+1), "X", base+100, 0))
			}
		}
	}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FirstObservations(idx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 10 {
		t.Fatalf("blocks: %d", res.Blocks)
	}
	if !almost(res.Share["EA"], 0.6) || !almost(res.Share["NA"], 0.2) || !almost(res.Share["WE"], 0.2) {
		t.Fatalf("shares: %+v", res.Share)
	}
	// Wide margins: no ambiguity, error bars collapse.
	if !almost(res.ErrHigh["EA"], 0.6) || !almost(res.ErrLow["EA"], 0.6) {
		t.Fatalf("error bars: low %v high %v", res.ErrLow["EA"], res.ErrHigh["EA"])
	}
}

func TestFirstObservationsAmbiguity(t *testing.T) {
	// Margin below 2*10ms: the runner-up gets an ambiguous win.
	b := h("b")
	records := []measure.Record{
		blockRec("EA", b, h("g"), 1, "X", 1000, 0),
		blockRec("NA", b, h("g"), 1, "X", 1015, 0),
	}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FirstObservations(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Share["EA"], 1) {
		t.Fatalf("EA share: %v", res.Share["EA"])
	}
	if !almost(res.ErrHigh["NA"], 1) {
		t.Fatalf("NA high bar should include the ambiguous win: %v", res.ErrHigh["NA"])
	}
}

func TestPoolFirstObservations(t *testing.T) {
	records := []measure.Record{}
	// Sparkpool blocks always first at EA; Ethermine at WE.
	for i := 0; i < 4; i++ {
		bh := h("spark" + string(rune('0'+i)))
		base := int64(i * 20000)
		records = append(records,
			blockRec("EA", bh, h("g"), uint64(i+1), "Sparkpool", base, 0),
			blockRec("WE", bh, h("g"), uint64(i+1), "Sparkpool", base+90, 0),
		)
	}
	for i := 0; i < 2; i++ {
		bh := h("ether" + string(rune('0'+i)))
		base := int64(100000 + i*20000)
		records = append(records,
			blockRec("WE", bh, h("g"), uint64(i+10), "Ethermine", base, 0),
			blockRec("EA", bh, h("g"), uint64(i+10), "Ethermine", base+90, 0),
		)
	}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PoolFirstObservations(idx, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pools) != 2 || res.Pools[0] != "Sparkpool" {
		t.Fatalf("pools: %v", res.Pools)
	}
	if !almost(res.FirstShare["Sparkpool"]["EA"], 1) {
		t.Fatalf("sparkpool EA share: %v", res.FirstShare["Sparkpool"]["EA"])
	}
	if !almost(res.FirstShare["Ethermine"]["WE"], 1) {
		t.Fatalf("ethermine WE share: %v", res.FirstShare["Ethermine"]["WE"])
	}
	if !almost(res.BlockShare["Sparkpool"], 4.0/6.0) {
		t.Fatalf("block share: %v", res.BlockShare["Sparkpool"])
	}
	// topN truncation.
	res1, err := PoolFirstObservations(idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Pools) != 1 {
		t.Fatalf("topN: %v", res1.Pools)
	}
	if _, err := PoolFirstObservations(idx, 0); err == nil {
		t.Fatal("topN 0 must fail")
	}
}

func TestRedundancy(t *testing.T) {
	b1, b2 := h("b1"), h("b2")
	records := []measure.Record{
		// b1: 2 announcements + 3 whole blocks at node D.
		rec("D", measure.KindAnnouncement, b1, 10),
		rec("D", measure.KindAnnouncement, b1, 12),
		blockRec("D", b1, h("g"), 1, "X", 11, 0),
		blockRec("D", b1, h("g"), 1, "X", 13, 0),
		blockRec("D", b1, h("g"), 1, "X", 14, 0),
		// b2: 1 whole block.
		blockRec("D", b2, b1, 2, "X", 20, 0),
		// Another node's receptions must not pollute D's stats.
		blockRec("E", b1, h("g"), 1, "X", 9, 0),
	}
	ds, _ := FromRecords(records)
	idx, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Redundancy(idx, "D")
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Announcements.Mean, 1) { // (2+0)/2
		t.Fatalf("announce mean: %v", res.Announcements.Mean)
	}
	if !almost(res.WholeBlocks.Mean, 2) { // (3+1)/2
		t.Fatalf("whole mean: %v", res.WholeBlocks.Mean)
	}
	if !almost(res.Combined.Mean, 3) { // (5+1)/2
		t.Fatalf("combined mean: %v", res.Combined.Mean)
	}
	if _, err := Redundancy(idx, "nonexistent"); err == nil {
		t.Fatal("unknown node must fail")
	}
	if _, err := Redundancy(nil, "D"); err == nil {
		t.Fatal("nil index must fail")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
