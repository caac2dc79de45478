package measure

import (
	"repro/internal/sim"
	"repro/internal/types"
)

// BlockObservation is one node's aggregate for one block: the earliest
// local sighting (and its message kind) plus per-kind reception counts.
type BlockObservation struct {
	FirstLocal sim.Time
	FirstKind  RecordKind
	// Blocks counts full-block receptions, Announces hash
	// announcements.
	Blocks    int
	Announces int
}

// TxObservation is one node's aggregate for one transaction: earliest
// local sighting plus the identity the reordering analysis needs.
type TxObservation struct {
	FirstLocal sim.Time
	Sender     string
	Nonce      uint64
}

// Fold is one node's per-item aggregates: O(blocks + transactions)
// however many receptions feed it. It is the one reception rule of the
// pipeline — a live Node feeds it at ingress, and analysis.BuildIndex
// replays a JSONL log through it — so an index built either way is the
// same.
type Fold struct {
	// Blocks and Txs map each item to the node's aggregate.
	Blocks map[types.Hash]*BlockObservation
	Txs    map[types.Hash]*TxObservation

	// Quiet-gap tracking: the longest local-clock interval between
	// successive block-related receptions. A healthy overlay delivers
	// something every few seconds; a long silence is the signature of
	// an outage or partition on the node's side of the network.
	lastBlockLocal sim.Time
	blockSeen      bool
	maxQuietGap    sim.Time
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		Blocks: make(map[types.Hash]*BlockObservation),
		Txs:    make(map[types.Hash]*TxObservation),
	}
}

// Block folds one block-related message received at local time: a full
// block (kind KindBlock) or an announcement (KindAnnouncement) of the
// given hashes. The earliest sighting of a block wins — strictly
// earlier local time; ties keep the first reception — and every
// sighting counts toward its kind.
func (f *Fold) Block(local sim.Time, kind RecordKind, hashes ...types.Hash) {
	// The node's clock offset is constant, so local deltas are exact
	// true-time deltas.
	if f.blockSeen {
		f.maxQuietGap = max(f.maxQuietGap, local-f.lastBlockLocal)
	}
	f.blockSeen = true
	f.lastBlockLocal = local
	for _, h := range hashes {
		o := f.Blocks[h]
		if o == nil {
			o = &BlockObservation{FirstLocal: local, FirstKind: kind}
			f.Blocks[h] = o
		} else if local < o.FirstLocal {
			o.FirstLocal, o.FirstKind = local, kind
		}
		if kind == KindBlock {
			o.Blocks++
		} else {
			o.Announces++
		}
	}
}

// Tx folds one sighting of transaction h at local time and returns its
// aggregate; first reports a new one, whose Sender and Nonce the
// caller fills in.
func (f *Fold) Tx(local sim.Time, h types.Hash) (o *TxObservation, first bool) {
	o = f.Txs[h]
	if o == nil {
		o = &TxObservation{FirstLocal: local}
		f.Txs[h] = o
		return o, true
	}
	o.FirstLocal = min(o.FirstLocal, local)
	return o, false
}

// MaxQuietGap returns the longest local-clock interval between
// successive block-related receptions (blocks or announcements) — the
// partition/outage signature the availability analysis reports. Zero
// until two receptions have been folded.
func (f *Fold) MaxQuietGap() sim.Time { return f.maxQuietGap }
