package analysis

import (
	"repro/internal/measure"
	"repro/internal/types"
)

// IndexFromStreams builds the observation Index directly from the
// measurement nodes' per-item aggregates — the fold every node keeps
// whether or not it also retains a raw log — without Record structs,
// hex round-trips or an O(receptions) scan. It produces exactly the
// Index BuildIndex computes from the same nodes' raw logs (the
// aggregates are the per-node fixpoints of BuildIndex's scan), so
// every downstream analysis is unchanged, byte for byte.
func IndexFromStreams(nodes []*measure.Node) (*Index, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	idx := &Index{
		BlockFirst:      make(map[types.Hash]map[string]Observation),
		BlockReceptions: make(map[types.Hash]map[string]map[measure.RecordKind]int),
		TxFirst:         make(map[types.Hash]map[string]Observation),
		TxMeta:          make(map[types.Hash]TxMeta),
		BlockMeta:       make(map[types.Hash]BlockMeta),
	}
	observed := false
	for _, n := range nodes {
		name := n.Name()
		for h, o := range n.BlockObservations() {
			observed = true
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
		for h, o := range n.TxObservations() {
			observed = true
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
	// Block skeletons come straight from the retained bodies — the
	// same content a raw-log scan would reparse from the first full
	// reception's record (meta is a pure function of the block, so
	// which node supplies it is immaterial).
	for _, n := range nodes {
		links := n.CaptureTxLinks()
		for h, b := range n.Blocks() {
			if _, ok := idx.BlockMeta[h]; ok {
				continue
			}
			idx.BlockMeta[h] = metaFromBlock(b, links)
		}
	}
	if !observed {
		return nil, measure.ErrEmptyLog
	}
	if len(idx.BlockFirst) == 0 {
		return nil, ErrNoBlocks
	}
	return idx, nil
}
