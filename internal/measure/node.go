package measure

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/types"
)

// Node is an instrumented measurement client: a regular network peer
// whose ingress is stamped with a local (NTP-skewed) clock.
//
// There is one observer. It feeds every reception once to the node's
// Fold and keeps each block body it sees — all the analysis index
// needs, in O(blocks + transactions) memory. Unless Options.Streaming
// is set it also appends the reception's Record(s) to a raw log, like
// the study's JSONL logs: O(receptions), the difference between a
// running summary and a 600 GB log.
type Node struct {
	name  string
	peer  *p2p.Node
	clock geo.Clock

	// keepLog retains the raw log (Options.Streaming unset).
	keepLog bool
	records []Record
	blocks  map[types.Hash]*types.Block
	fold    *Fold

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
	// node's Fold either way (analysis.IndexFromStreams reads it);
	// with Streaming no Record is retained, Records() returns nil and
	// memory stays O(items) rather than O(receptions).
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
		fold:           NewFold(),
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

// Records returns the log lines collected so far (not copied: the log
// can be large; callers must not mutate). Streaming nodes keep no raw
// log and return nil.
func (m *Node) Records() []Record { return m.records }

// CaptureTxLinks reports whether block observations carry tx hash
// lists.
func (m *Node) CaptureTxLinks() bool { return m.captureTxLinks }

// Fold returns the node's per-item aggregates. It is shared; callers
// must not mutate it.
func (m *Node) Fold() *Fold { return m.fold }

// Blocks returns the full content of every block observed, keyed by
// hash. The map is shared; callers must not mutate.
func (m *Node) Blocks() map[types.Hash]*types.Block { return m.blocks }

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
		h := b.Hash()
		m.fold.Block(local, KindBlock, h)
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
		m.fold.Block(local, KindAnnouncement, msg.Hashes...)
		if !m.keepLog {
			return
		}
		for _, h := range msg.Hashes {
			m.records = append(m.records, record(KindAnnouncement, h))
		}
	case p2p.MsgTransactions:
		for _, tx := range msg.Txs {
			if tx == nil {
				continue
			}
			h := tx.Hash()
			o, first := m.fold.Tx(local, h)
			if first {
				o.Sender, o.Nonce = tx.Sender.String(), tx.Nonce
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
