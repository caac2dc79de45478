package analysis

import (
	"repro/internal/measure"
	"repro/internal/types"
)

// IndexFromStreams builds the observation Index from live measurement
// nodes: each node's Fold — which it keeps whether or not it also
// retains a raw log — and the block bodies it retained, without Record
// structs, hex round-trips or an O(receptions) scan. BuildIndex over
// the same nodes' raw logs replays them through the same Fold, so the
// two agree, byte for byte.
func IndexFromStreams(nodes []*measure.Node) (*Index, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	names := make([]string, len(nodes))
	folds := make([]*measure.Fold, len(nodes))
	// A block's skeleton is a pure function of its body, so which node
	// supplies it is immaterial.
	meta := make(map[types.Hash]BlockMeta)
	observed := false
	for i, n := range nodes {
		names[i], folds[i] = n.Name(), n.Fold()
		observed = observed || len(folds[i].Blocks) > 0 || len(folds[i].Txs) > 0
		for h, b := range n.Blocks() {
			if _, ok := meta[h]; !ok {
				meta[h] = metaFromBlock(b, n.CaptureTxLinks())
			}
		}
	}
	if !observed {
		return nil, measure.ErrEmptyLog
	}
	return assemble(names, folds, meta)
}

// assemble builds the Index from per-vantage folds — folds[i] is
// names[i]'s — and the block skeletons meta, which it keeps. A
// transaction's identity comes from the first fold that saw it.
func assemble(names []string, folds []*measure.Fold, meta map[types.Hash]BlockMeta) (*Index, error) {
	idx := &Index{
		BlockFirst:      make(map[types.Hash]map[string]Observation),
		BlockReceptions: make(map[types.Hash]map[string]map[measure.RecordKind]int),
		TxFirst:         make(map[types.Hash]map[string]Observation),
		TxMeta:          make(map[types.Hash]TxMeta),
		BlockMeta:       meta,
	}
	for i, f := range folds {
		name := names[i]
		for h, o := range f.Blocks {
			perNode := idx.BlockFirst[h]
			if perNode == nil {
				perNode = make(map[string]Observation)
				idx.BlockFirst[h] = perNode
			}
			perNode[name] = Observation{Node: name, Local: o.FirstLocal, Kind: o.FirstKind}
			perRecv := idx.BlockReceptions[h]
			if perRecv == nil {
				perRecv = make(map[string]map[measure.RecordKind]int)
				idx.BlockReceptions[h] = perRecv
			}
			perKind := make(map[measure.RecordKind]int, 2)
			if o.Blocks > 0 {
				perKind[measure.KindBlock] = o.Blocks
			}
			if o.Announces > 0 {
				perKind[measure.KindAnnouncement] = o.Announces
			}
			perRecv[name] = perKind
		}
		for h, o := range f.Txs {
			perNode := idx.TxFirst[h]
			if perNode == nil {
				perNode = make(map[string]Observation)
				idx.TxFirst[h] = perNode
			}
			perNode[name] = Observation{Node: name, Local: o.FirstLocal, Kind: measure.KindTx}
			if _, ok := idx.TxMeta[h]; !ok {
				idx.TxMeta[h] = TxMeta{Sender: o.Sender, Nonce: o.Nonce}
			}
		}
	}
	if len(idx.BlockFirst) == 0 {
		return nil, ErrNoBlocks
	}
	return idx, nil
}
