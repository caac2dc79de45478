package measure

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/types"
)

// BlockObservation is one node's aggregate for one block: the earliest
// local sighting (and its message kind) plus per-kind reception counts
// — exactly what analysis.BuildIndex derives for the node from its raw
// log.
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

// Node is an instrumented measurement client: a regular network peer
// whose ingress is stamped with a local (NTP-skewed) clock.
//
// There is one observer. It folds every reception once into O(1)
// per-item aggregates (BlockObservations, TxObservations, the retained
// block bodies, the quiet gap) — all the analysis index needs, in
// O(blocks + transactions) memory. Unless Options.Streaming is set it
// also appends the reception's Record(s) to a raw log, like the
// study's JSONL logs: O(receptions), the difference between a running
// summary and a 600 GB log.
type Node struct {
	name  string
	peer  *p2p.Node
	clock geo.Clock

	// keepLog retains the raw log (Options.Streaming unset).
	keepLog  bool
	records  []Record
	blocks   map[types.Hash]*types.Block
	blockObs map[types.Hash]*BlockObservation
	txObs    map[types.Hash]*TxObservation

	// Quiet-gap tracking: the longest local-clock interval between
	// successive block-related receptions. A healthy overlay delivers
	// something every few seconds; a long silence is the signature of
	// an outage or partition on the node's side of the network.
	lastBlockLocal sim.Time
	blockSeen      bool
	maxQuietGap    sim.Time

	// captureTxLinks controls whether block records carry the full
	// transaction hash list (needed for commit-time analysis; costs
	// log volume, like the original raw logs' 600 GB).
	captureTxLinks bool
}

// Options configures a measurement node attachment.
type Options struct {
	// Name is the node label; the paper uses region abbreviations
	// ("NA", "EA", "WE", "CE").
	Name string
	// Region places the node.
	Region geo.Region
	// Peers is how many peers to connect. The paper's primary nodes
	// used "unlimited"; its subsidiary redundancy measurement used the
	// default 25.
	Peers int
	// MaxPeers caps inbound connections (0 = unlimited).
	MaxPeers int
	// CaptureTxLinks records each block's transaction hash list.
	CaptureTxLinks bool
	// Streaming drops the raw log. Receptions are folded into the
	// per-item aggregates either way (analysis.IndexFromStreams reads
	// those); with Streaming no Record is retained, Records() returns
	// nil and memory stays O(items) rather than O(receptions).
	Streaming bool
}

// Attach creates a measurement node, joins it to the network with the
// requested peer count and installs the observer. The clock should
// come from geo.NewClock for paper-faithful NTP error, or
// geo.PerfectClock for ground-truth runs.
func Attach(net *p2p.Network, opts Options, clock geo.Clock) (*Node, error) {
	if net == nil {
		return nil, errors.New("measure: nil network")
	}
	if opts.Name == "" {
		return nil, errors.New("measure: node needs a name")
	}
	peer, err := net.AddNode(opts.Region, opts.MaxPeers)
	if err != nil {
		return nil, fmt.Errorf("measure: add node: %w", err)
	}
	if opts.Peers > 0 {
		if err := net.ConnectSample(peer, opts.Peers); err != nil {
			return nil, fmt.Errorf("measure: connect %s: %w", opts.Name, err)
		}
	}
	m := &Node{
		name:           opts.Name,
		peer:           peer,
		clock:          clock,
		keepLog:        !opts.Streaming,
		blocks:         make(map[types.Hash]*types.Block),
		blockObs:       make(map[types.Hash]*BlockObservation),
		txObs:          make(map[types.Hash]*TxObservation),
		captureTxLinks: opts.CaptureTxLinks,
	}
	peer.SetObserver(m.observe)
	return m, nil
}

// Name returns the node label.
func (m *Node) Name() string { return m.name }

// Region returns the node's region.
func (m *Node) Region() geo.Region { return m.peer.Region() }

// Peer exposes the underlying network node.
func (m *Node) Peer() *p2p.Node { return m.peer }

// Clock exposes the node's clock (for error-bar computations).
func (m *Node) Clock() geo.Clock { return m.clock }

// Records returns the log lines collected so far (not copied: the log
// can be large; callers must not mutate). Streaming nodes keep no raw
// log and return nil.
func (m *Node) Records() []Record { return m.records }

// CaptureTxLinks reports whether block observations carry tx hash
// lists.
func (m *Node) CaptureTxLinks() bool { return m.captureTxLinks }

// BlockObservations returns the per-block aggregates. The map is
// shared; callers must not mutate.
func (m *Node) BlockObservations() map[types.Hash]*BlockObservation { return m.blockObs }

// TxObservations returns the per-transaction aggregates. The map is
// shared; callers must not mutate.
func (m *Node) TxObservations() map[types.Hash]*TxObservation { return m.txObs }

// Blocks returns the full content of every block observed, keyed by
// hash. The map is shared; callers must not mutate.
func (m *Node) Blocks() map[types.Hash]*types.Block { return m.blocks }

// MaxQuietGap returns the longest local-clock interval between
// successive block-related receptions (blocks or announcements) — the
// partition/outage signature the availability analysis reports. Zero
// until two receptions have been observed.
func (m *Node) MaxQuietGap() sim.Time { return m.maxQuietGap }

// noteBlockActivity folds one block-related reception into the
// quiet-gap aggregate. The node's clock offset is constant, so local
// deltas are exact true-time deltas.
func (m *Node) noteBlockActivity(local sim.Time) {
	if m.blockSeen {
		if gap := local - m.lastBlockLocal; gap > m.maxQuietGap {
			m.maxQuietGap = gap
		}
	}
	m.blockSeen = true
	m.lastBlockLocal = local
}

// blockSighting folds one sighting of block h into its aggregate and
// returns it for the caller to count. The earliest-sighting rule
// matches analysis.BuildIndex's noteFirst exactly (strictly earlier
// local time wins; ties keep the first reception), so the index built
// from the aggregates is identical to one built from the raw records.
func (m *Node) blockSighting(h types.Hash, local sim.Time, kind RecordKind) *BlockObservation {
	o := m.blockObs[h]
	if o == nil {
		o = &BlockObservation{FirstLocal: local, FirstKind: kind}
		m.blockObs[h] = o
	} else if local < o.FirstLocal {
		o.FirstLocal, o.FirstKind = local, kind
	}
	return o
}

// observe is the instrumentation hook: stamp the local clock, fold the
// reception into the aggregates and, when the raw log is kept, append
// one Record per item the message carries.
func (m *Node) observe(now sim.Time, from p2p.NodeID, msg *p2p.Message) {
	local := m.clock.Read(now)
	// record starts a log line with the fields every kind shares.
	record := func(kind RecordKind, h types.Hash) Record {
		return Record{
			Node:        m.name,
			Region:      m.peer.Region().String(),
			Kind:        kind,
			LocalMillis: int64(local),
			TrueMillis:  int64(now),
			FromPeer:    int(from),
			Hash:        h.String(),
		}
	}
	switch msg.Kind {
	case p2p.MsgNewBlock, p2p.MsgCompactBlock:
		// A compact sketch carries the full header inline, so it is a
		// block sighting with the block's identity — only its wire
		// footprint differs, which the bandwidth accounting tracks.
		b := msg.Block
		if b == nil {
			return
		}
		m.noteBlockActivity(local)
		h := b.Hash()
		m.blockSighting(h, local, KindBlock).Blocks++
		if _, seen := m.blocks[h]; !seen {
			m.blocks[h] = b
		}
		if !m.keepLog {
			return
		}
		rec := record(KindBlock, h)
		rec.Number = b.Header.Number
		rec.ParentHash = b.Header.ParentHash.String()
		rec.Miner = b.Header.MinerLabel
		rec.TxCount = len(b.Txs)
		rec.GasUsed = b.Header.GasUsed
		rec.SizeBytes = b.EncodedSize()
		rec.Extra = b.Header.Extra
		for i := range b.Uncles {
			rec.Uncles = append(rec.Uncles, b.Uncles[i].Hash().String())
		}
		if m.captureTxLinks {
			rec.TxHashes = make([]string, len(b.Txs))
			for i, tx := range b.Txs {
				rec.TxHashes[i] = tx.Hash().String()
			}
		}
		m.records = append(m.records, rec)
	case p2p.MsgNewBlockHashes:
		m.noteBlockActivity(local)
		for _, h := range msg.Hashes {
			m.blockSighting(h, local, KindAnnouncement).Announces++
			if m.keepLog {
				m.records = append(m.records, record(KindAnnouncement, h))
			}
		}
	case p2p.MsgTransactions:
		for _, tx := range msg.Txs {
			if tx == nil {
				continue
			}
			h := tx.Hash()
			o := m.txObs[h]
			if o == nil {
				o = &TxObservation{FirstLocal: local, Sender: tx.Sender.String(), Nonce: tx.Nonce}
				m.txObs[h] = o
			} else if local < o.FirstLocal {
				o.FirstLocal = local
			}
			if m.keepLog {
				rec := record(KindTx, h)
				rec.Sender, rec.Nonce = o.Sender, o.Nonce
				m.records = append(m.records, rec)
			}
		}
	default:
		// GetBlock requests carry no measurement value; the study's
		// logs track blocks, announcements and transactions.
	}
}
