// Package analysis is the reproduction's processing pipeline: the Go
// equivalent of the paper's pandas/NumPy layer. It consumes
// measurement logs (and, for chain-level experiments, block trees)
// and computes every figure and table of the evaluation:
//
//	Fig. 1  — block propagation delay distribution
//	Fig. 2  — first block observation share per region
//	Fig. 3  — first observation per mining pool and region
//	Table II — redundant block receptions
//	Fig. 4  — transaction inclusion and confirmation times
//	Fig. 5  — in-order vs out-of-order commit delay
//	Fig. 6  — empty blocks per mining pool
//	Table III — fork lengths and recognition
//	Fig. 7  — consecutive main-chain sequences per pool
//	§III-C5 — one-miner forks
//	§III-D  — sequence probability (security)
package analysis

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/chain"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/types"
)

// Dataset is the merged input of an analysis run: the union of all
// measurement nodes' logs.
type Dataset struct {
	// Records holds every log line from every node.
	Records []measure.Record
	// NodeNames lists measurement nodes in a stable order.
	NodeNames []string
}

// Analysis errors.
var (
	ErrNoBlocks = errors.New("analysis: no block observations")
	ErrNoNodes  = errors.New("analysis: no measurement nodes")
)

// FromRecords builds a Dataset from parsed JSONL logs.
func FromRecords(records []measure.Record) (*Dataset, error) {
	if len(records) == 0 {
		return nil, measure.ErrEmptyLog
	}
	ds := &Dataset{Records: records}
	seen := map[string]bool{}
	for _, r := range records {
		if !seen[r.Node] {
			seen[r.Node] = true
			ds.NodeNames = append(ds.NodeNames, r.Node)
		}
	}
	sort.Strings(ds.NodeNames)
	return ds, nil
}

// Observation is one node's first sighting of an item.
type Observation struct {
	Node  string
	Local sim.Time
	Kind  measure.RecordKind
}

// Index holds per-item first-observation times, the backbone of the
// propagation-delay method (Decker et al., adapted in §II): the delay
// of a block is measured against its earliest sighting at any node.
type Index struct {
	// BlockFirst maps block hash -> node -> earliest sighting
	// (NewBlock or announcement).
	BlockFirst map[types.Hash]map[string]Observation
	// BlockReceptions counts every delivery per node and kind (for
	// Table II's redundancy).
	BlockReceptions map[types.Hash]map[string]map[measure.RecordKind]int
	// TxFirst maps tx hash -> node -> earliest sighting.
	TxFirst map[types.Hash]map[string]Observation
	// TxMeta keeps sender/nonce for reordering analysis.
	TxMeta map[types.Hash]TxMeta
	// BlockMeta keeps the skeleton data carried by block records.
	BlockMeta map[types.Hash]BlockMeta
}

// TxMeta is the transaction identity carried in tx records.
type TxMeta struct {
	Sender string
	Nonce  uint64
}

// BlockMeta is the block skeleton reconstructible from log records
// alone (no full content needed).
type BlockMeta struct {
	Hash     types.Hash
	Parent   types.Hash
	Number   uint64
	Miner    string
	TxCount  int
	Size     int
	Extra    uint64
	Uncles   []types.Hash
	TxHashes []types.Hash
}

// BuildIndex replays the dataset's records, in order, through one
// measure.Fold per node — the reception rule every live measurement
// node applies at ingress — and takes each block's skeleton from its
// first block record, so a log read back from JSONL indexes exactly
// like the campaign that wrote it (IndexFromStreams).
func BuildIndex(ds *Dataset) (*Index, error) {
	if ds == nil || len(ds.Records) == 0 {
		return nil, measure.ErrEmptyLog
	}
	var names []string
	byNode := map[string]*measure.Fold{}
	meta := make(map[types.Hash]BlockMeta)
	// ids keeps each transaction's identity as its first record carries
	// it, so every node's fold agrees on it.
	ids := make(map[types.Hash]TxMeta)
	for _, r := range ds.Records {
		h, err := parseHash(r.Hash)
		if err != nil {
			return nil, fmt.Errorf("record from %s: %w", r.Node, err)
		}
		f := byNode[r.Node]
		if f == nil {
			f = measure.NewFold()
			byNode[r.Node] = f
			names = append(names, r.Node)
		}
		switch r.Kind {
		case measure.KindBlock, measure.KindAnnouncement:
			f.Block(r.LocalTime(), r.Kind, h)
			if _, ok := meta[h]; !ok && r.Kind == measure.KindBlock {
				if meta[h], err = blockMetaFromRecord(h, r); err != nil {
					return nil, err
				}
			}
		case measure.KindTx:
			if o, first := f.Tx(r.LocalTime(), h); first {
				id, ok := ids[h]
				if !ok {
					id = TxMeta{Sender: r.Sender, Nonce: r.Nonce}
					ids[h] = id
				}
				o.Sender, o.Nonce = id.Sender, id.Nonce
			}
		}
	}
	folds := make([]*measure.Fold, len(names))
	for i, name := range names {
		folds[i] = byNode[name]
	}
	return assemble(names, folds, meta)
}

func blockMetaFromRecord(h types.Hash, r measure.Record) (BlockMeta, error) {
	parent, err := parseHash(r.ParentHash)
	if err != nil {
		return BlockMeta{}, fmt.Errorf("block %s parent: %w", r.Hash, err)
	}
	meta := BlockMeta{
		Hash:    h,
		Parent:  parent,
		Number:  r.Number,
		Miner:   r.Miner,
		TxCount: r.TxCount,
		Size:    r.SizeBytes,
		Extra:   r.Extra,
	}
	for _, u := range r.Uncles {
		uh, err := parseHash(u)
		if err != nil {
			return BlockMeta{}, fmt.Errorf("block %s uncle: %w", r.Hash, err)
		}
		meta.Uncles = append(meta.Uncles, uh)
	}
	for _, txh := range r.TxHashes {
		th, err := parseHash(txh)
		if err != nil {
			return BlockMeta{}, fmt.Errorf("block %s tx: %w", r.Hash, err)
		}
		meta.TxHashes = append(meta.TxHashes, th)
	}
	return meta, nil
}

// EarliestObservation returns the earliest sighting of an item across
// all nodes and, through the second return, every node's first
// sighting.
func EarliestObservation(perNode map[string]Observation) (Observation, bool) {
	var best Observation
	found := false
	for _, obs := range perNode {
		if !found || obs.Local < best.Local || (obs.Local == best.Local && obs.Node < best.Node) {
			best = obs
			found = true
		}
	}
	return best, found
}

// parseHash decodes the 0x-prefixed hex form produced by
// types.Hash.String.
func parseHash(s string) (types.Hash, error) {
	var h types.Hash
	if len(s) != 2+2*types.HashLen || s[0] != '0' || s[1] != 'x' {
		return h, fmt.Errorf("analysis: malformed hash %q", s)
	}
	for i := 0; i < types.HashLen; i++ {
		hi, ok1 := hexVal(s[2+2*i])
		lo, ok2 := hexVal(s[3+2*i])
		if !ok1 || !ok2 {
			return h, fmt.Errorf("analysis: malformed hash %q", s)
		}
		h[i] = hi<<4 | lo
	}
	return h, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

// ChainView is the analysis-facing view of the block DAG: the main
// chain in height order plus every observed block's skeleton and the
// set of uncle references.
type ChainView struct {
	// Main lists main-chain blocks from lowest to highest height.
	Main []BlockMeta
	// All maps every observed block.
	All map[types.Hash]BlockMeta
	// UncleRefs is the set of hashes referenced as uncles by
	// main-chain blocks.
	UncleRefs map[types.Hash]bool
	// MainSet is the set of main-chain hashes.
	MainSet map[types.Hash]bool
}

// ViewFromTree converts a simulation block tree into a ChainView
// (genesis excluded — the paper's counts are over real blocks).
func ViewFromTree(t *chain.BlockTree) (*ChainView, error) {
	if t == nil {
		return nil, errors.New("analysis: nil tree")
	}
	main := t.MainChain()
	base := main[0].Header.Number
	v := &ChainView{
		Main:      make([]BlockMeta, 0, len(main)-1),
		All:       make(map[types.Hash]BlockMeta, t.Len()-1),
		UncleRefs: make(map[types.Hash]bool),
		MainSet:   make(map[types.Hash]bool, len(main)-1),
	}
	// One pass over the heights builds every block's meta once; the
	// main-chain block of a height is the one MainChain holds there.
	for n := base + 1; n <= t.MaxHeight(); n++ {
		for _, h := range t.AtHeight(n) {
			b, ok := t.Block(h)
			if !ok {
				continue
			}
			meta := metaFromBlock(b, true)
			v.All[h] = meta
			if b != main[n-base] {
				continue
			}
			v.Main = append(v.Main, meta)
			v.MainSet[h] = true
			for _, u := range meta.Uncles {
				v.UncleRefs[u] = true
			}
		}
	}
	return v, nil
}

// metaFromBlock is the skeleton of a block held in memory. txLinks
// gates the transaction hash list, mirroring what a measurement node's
// block records carry under its measure.Options.CaptureTxLinks setting.
func metaFromBlock(b *types.Block, txLinks bool) BlockMeta {
	meta := BlockMeta{
		Hash:    b.Hash(),
		Parent:  b.Header.ParentHash,
		Number:  b.Header.Number,
		Miner:   b.Header.MinerLabel,
		TxCount: len(b.Txs),
		Size:    b.EncodedSize(),
		Extra:   b.Header.Extra,
	}
	for i := range b.Uncles {
		meta.Uncles = append(meta.Uncles, b.Uncles[i].Hash())
	}
	if txLinks {
		for _, tx := range b.Txs {
			meta.TxHashes = append(meta.TxHashes, tx.Hash())
		}
	}
	return meta
}

// ViewFromIndex reconstructs a ChainView from measurement logs alone,
// the way a blockchain explorer would: take the highest observed
// block, walk parent links back to the first observed height, and
// call that the main chain. Blocks whose parents were never observed
// terminate the walk.
func ViewFromIndex(idx *Index) (*ChainView, error) {
	if idx == nil || len(idx.BlockMeta) == 0 {
		return nil, ErrNoBlocks
	}
	v := &ChainView{
		All:       make(map[types.Hash]BlockMeta, len(idx.BlockMeta)),
		UncleRefs: make(map[types.Hash]bool),
		MainSet:   make(map[types.Hash]bool),
	}
	var tip BlockMeta
	haveTip := false
	for h, meta := range idx.BlockMeta {
		v.All[h] = meta
		if !haveTip || meta.Number > tip.Number ||
			(meta.Number == tip.Number && lessHash(meta.Hash, tip.Hash)) {
			tip = meta
			haveTip = true
		}
	}
	// Walk back from the tip.
	var rev []BlockMeta
	cur := tip
	for {
		rev = append(rev, cur)
		parent, ok := v.All[cur.Parent]
		if !ok {
			break
		}
		cur = parent
	}
	v.Main = make([]BlockMeta, len(rev))
	for i, meta := range rev {
		v.Main[len(rev)-1-i] = meta
	}
	for _, meta := range v.Main {
		v.MainSet[meta.Hash] = true
		for _, u := range meta.Uncles {
			v.UncleRefs[u] = true
		}
	}
	return v, nil
}

func lessHash(a, b types.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
