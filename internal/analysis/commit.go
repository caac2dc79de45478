package analysis

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/types"
)

// ConfirmationDepths are the confirmation levels Fig. 4 plots; 12 is
// Ethereum's conventional finality rule.
var ConfirmationDepths = []int{3, 12, 15, 36}

// CommitResult reproduces Fig. 4: the distribution of the time from a
// transaction's first observation to its inclusion in a main-chain
// block, and onward to its k-block confirmations.
type CommitResult struct {
	// Inclusion is the ECDF of first-inclusion times (seconds).
	Inclusion *stats.ECDF
	// Confirmations maps depth -> ECDF of commit times (seconds).
	Confirmations map[int]*stats.ECDF
	// Txs is the number of transactions with a resolvable inclusion.
	Txs int
}

// txInclusion pairs a transaction with the main-chain index of its
// including block.
type txInclusion struct {
	txHash    types.Hash
	firstSeen sim.Time
	mainIdx   int
}

// blockObservationTimes returns, per main-chain index, the earliest
// observation time of that block across nodes. Blocks never observed
// (possible in log-truncated datasets) get -1.
func blockObservationTimes(idx *Index, view *ChainView) []sim.Time {
	out := make([]sim.Time, len(view.Main))
	for i, meta := range view.Main {
		out[i] = -1
		if perNode, ok := idx.BlockFirst[meta.Hash]; ok {
			if first, ok := EarliestObservation(perNode); ok {
				out[i] = first.Local
			}
		}
	}
	return out
}

// resolveInclusions maps every observed transaction to the main-chain
// block that first includes it. Requires tx hash lists, which a
// measurement node records when its campaign runs a transaction
// workload.
func resolveInclusions(idx *Index, view *ChainView) ([]txInclusion, error) {
	txToMain := make(map[types.Hash]int)
	linked := false
	for i, meta := range view.Main {
		if len(meta.TxHashes) > 0 {
			linked = true
		}
		for _, th := range meta.TxHashes {
			if _, ok := txToMain[th]; !ok {
				txToMain[th] = i
			}
		}
	}
	if !linked {
		return nil, fmt.Errorf("analysis: dataset has no tx-to-block links (record the dataset with ethmeasure -txrate > 0)")
	}
	var out []txInclusion
	for th, perNode := range idx.TxFirst {
		mainIdx, ok := txToMain[th]
		if !ok {
			continue // never committed during the window
		}
		first, ok := EarliestObservation(perNode)
		if !ok {
			continue
		}
		out = append(out, txInclusion{txHash: th, firstSeen: first.Local, mainIdx: mainIdx})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no committed transactions observed")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].mainIdx != out[j].mainIdx {
			return out[i].mainIdx < out[j].mainIdx
		}
		return lessHash(out[i].txHash, out[j].txHash)
	})
	return out, nil
}

// CommitTimes computes Fig. 4. Transactions whose confirmation block
// lies beyond the observation window are excluded from that depth's
// ECDF (right-censoring, as in the paper's finite window).
func CommitTimes(idx *Index, view *ChainView) (*CommitResult, error) {
	if idx == nil || view == nil || len(view.Main) == 0 {
		return nil, ErrNoBlocks
	}
	inclusions, err := resolveInclusions(idx, view)
	if err != nil {
		return nil, err
	}
	obsTimes := blockObservationTimes(idx, view)

	var inclusionSecs []float64
	confSecs := make(map[int][]float64, len(ConfirmationDepths))
	for _, inc := range inclusions {
		incObs := obsTimes[inc.mainIdx]
		if incObs < 0 || incObs < inc.firstSeen {
			// The block was observed before the tx (possible under
			// clock skew); clamp at zero via skipping negative deltas.
			if incObs < 0 {
				continue
			}
		}
		d := float64(incObs-inc.firstSeen) / 1000
		if d < 0 {
			d = 0
		}
		inclusionSecs = append(inclusionSecs, d)
		for _, k := range ConfirmationDepths {
			confIdx := inc.mainIdx + k
			if confIdx >= len(obsTimes) || obsTimes[confIdx] < 0 {
				continue
			}
			cd := float64(obsTimes[confIdx]-inc.firstSeen) / 1000
			if cd < 0 {
				cd = 0
			}
			confSecs[k] = append(confSecs[k], cd)
		}
	}
	if len(inclusionSecs) == 0 {
		return nil, fmt.Errorf("analysis: no inclusion samples")
	}
	res := &CommitResult{
		Inclusion:     stats.NewECDF(inclusionSecs),
		Confirmations: make(map[int]*stats.ECDF, len(confSecs)),
		Txs:           len(inclusionSecs),
	}
	for k, samples := range confSecs {
		res.Confirmations[k] = stats.NewECDF(samples)
	}
	return res, nil
}

// ReorderingResult reproduces Fig. 5 and the §III-C2 headline number:
// the share of committed transactions first observed out of order, and
// the commit-delay distributions per class.
type ReorderingResult struct {
	// OutOfOrderFraction is the share of committed transactions whose
	// first observation happened after a higher-nonce transaction from
	// the same sender.
	OutOfOrderFraction float64
	// InOrder / OutOfOrder are 12-confirmation commit-time ECDFs
	// (seconds).
	InOrder    *stats.ECDF
	OutOfOrder *stats.ECDF
	// Counts per class.
	InOrderCount    int
	OutOfOrderCount int
}

// Reordering computes Fig. 5 with the paper's definition (§III-C2):
// a pair is out of order when the higher-nonce transaction is observed
// first; the flagged transaction is that higher-nonce one, because it
// cannot be mined until its delayed predecessor arrives — which is
// exactly the commit penalty Fig. 5 plots.
func Reordering(idx *Index, view *ChainView) (*ReorderingResult, error) {
	if idx == nil || view == nil || len(view.Main) == 0 {
		return nil, ErrNoBlocks
	}
	inclusions, err := resolveInclusions(idx, view)
	if err != nil {
		return nil, err
	}
	obsTimes := blockObservationTimes(idx, view)

	// Gather every observed transaction (committed or not — a
	// predecessor's arrival time matters even when the analysis window
	// truncates its own commit) per sender, ordered by nonce.
	type obsTx struct {
		hash  types.Hash
		nonce uint64
		seen  sim.Time
	}
	bySender := map[string][]obsTx{}
	for th, perNode := range idx.TxFirst {
		meta, ok := idx.TxMeta[th]
		if !ok {
			continue
		}
		first, ok := EarliestObservation(perNode)
		if !ok {
			continue
		}
		bySender[meta.Sender] = append(bySender[meta.Sender], obsTx{hash: th, nonce: meta.Nonce, seen: first.Local})
	}
	// A tx is out of order when some lower-nonce tx from the same
	// sender was observed later: seen(T) < max over predecessors of
	// seen(P).
	outOfOrder := map[types.Hash]bool{}
	for _, txs := range bySender {
		sort.Slice(txs, func(i, j int) bool {
			if txs[i].nonce != txs[j].nonce {
				return txs[i].nonce < txs[j].nonce
			}
			return txs[i].seen < txs[j].seen
		})
		var maxPredecessorSeen sim.Time = -1
		for _, t := range txs {
			if maxPredecessorSeen >= 0 && t.seen < maxPredecessorSeen {
				outOfOrder[t.hash] = true
			}
			if t.seen > maxPredecessorSeen {
				maxPredecessorSeen = t.seen
			}
		}
	}

	const depth = 12
	var inOrderSecs, oooSecs []float64
	total, ooo := 0, 0
	for _, inc := range inclusions {
		total++
		isOOO := outOfOrder[inc.txHash]
		if isOOO {
			ooo++
		}
		confIdx := inc.mainIdx + depth
		if confIdx >= len(obsTimes) || obsTimes[confIdx] < 0 {
			continue
		}
		d := float64(obsTimes[confIdx]-inc.firstSeen) / 1000
		if d < 0 {
			d = 0
		}
		if isOOO {
			oooSecs = append(oooSecs, d)
		} else {
			inOrderSecs = append(inOrderSecs, d)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("analysis: no committed transactions")
	}
	return &ReorderingResult{
		OutOfOrderFraction: float64(ooo) / float64(total),
		InOrder:            stats.NewECDF(inOrderSecs),
		OutOfOrder:         stats.NewECDF(oooSecs),
		InOrderCount:       len(inOrderSecs),
		OutOfOrderCount:    len(oooSecs),
	}, nil
}
