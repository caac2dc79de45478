// Package p2p simulates the Ethereum wire protocol's dissemination
// layer (eth/63 era, matching the paper's Geth build): blocks
// propagate either as direct NewBlock pushes (header + body) to a
// square-root subset of peers or as NewBlockHashes announcements to
// the rest, with announcement receivers pulling unknown blocks via
// GetBlock — the default relay discipline, which relay.go runs beside
// the four alternatives relay.Mode names. Transactions are broadcast
// to all peers.
//
// Every message carries a realistic serialized size (derived from the
// RLP encodings in internal/types), which the geo latency model turns
// into transfer delay. The redundancy the paper measures in Table II
// is an emergent property of this protocol.
//
// In flight a message is a flight: one 32-byte record in a lane's slab,
// naming its block or transaction by interned index. There is no
// message pool. The exported Message is what an Observer is shown — a
// per-lane view rebuilt from the flight only for nodes that have an
// observer and overwritten by the next, so observers must copy what
// they keep.
package p2p

import (
	"unsafe"

	"repro/internal/p2p/relay"
	"repro/internal/types"
)

// MsgKind discriminates wire messages.
type MsgKind uint8

// Wire message kinds: the eth/63 protocol subset the study logs, plus
// the compact-relay family (sketches and the missing-transaction
// round trip) used by the relay.Compact discipline.
const (
	MsgNewBlock MsgKind = iota + 1
	MsgNewBlockHashes
	MsgGetBlock
	MsgTransactions
	// MsgCompactBlock carries a short-ID sketch of a block (header +
	// one ShortID per transaction).
	MsgCompactBlock
	// MsgGetCompact requests a sketch of an announced block.
	MsgGetCompact
	// MsgGetBlockTxns requests the transactions a sketch receiver
	// could not resolve from its pool.
	MsgGetBlockTxns
	// MsgBlockTxns delivers the requested missing transactions.
	MsgBlockTxns

	// msgKindCount bounds the per-class accounting arrays (kinds are
	// 1-based).
	msgKindCount
)

// String names the message kind as in the paper's log schema.
func (k MsgKind) String() string {
	switch k {
	case MsgNewBlock:
		return "NewBlock"
	case MsgNewBlockHashes:
		return "NewBlockHashes"
	case MsgGetBlock:
		return "GetBlock"
	case MsgTransactions:
		return "Transactions"
	case MsgCompactBlock:
		return "CompactBlock"
	case MsgGetCompact:
		return "GetCompact"
	case MsgGetBlockTxns:
		return "GetBlockTxns"
	case MsgBlockTxns:
		return "BlockTxns"
	default:
		return "Unknown"
	}
}

// Message is a wire message as an Observer sees it. Exactly one payload
// field is populated depending on Kind. The transport does not carry
// Messages (see flight): the lane fills one reusable Message per
// observed delivery and overwrites it on the next. Observers must
// therefore copy — never retain — a message or its Hashes or Txs slice.
type Message struct {
	Kind MsgKind
	// Block is the payload of MsgNewBlock and — the sketch's identity
	// and content in the simulation's object graph — MsgCompactBlock.
	Block *types.Block
	// Hashes is the payload of MsgNewBlockHashes.
	Hashes []types.Hash
	// Want is the payload of MsgGetBlock, MsgGetCompact and the block
	// identity of MsgGetBlockTxns / MsgBlockTxns.
	Want types.Hash
	// Txs is the payload of MsgTransactions.
	Txs []*types.Transaction
	// TxCount / TxBytes size the missing-transaction round trip
	// (MsgGetBlockTxns carries the request shape, MsgBlockTxns the
	// response payload size).
	TxCount int
	TxBytes int

	// hash1 and tx1 back the single-hash announcement's Hashes and the
	// single-transaction message's Txs.
	hash1 [1]types.Hash
	tx1   [1]*types.Transaction
}

// flight is one message in flight — destination, sender, payload and
// accounting in 32 bytes with no pointer, so the garbage collector never
// scans a lane's slab (netLane.flights) or a cross-lane outbox. A
// delivery event carries the slot number; cross-lane sends carry the
// flight by value until the merge.
//
// Nodes are named by index (NodeID-1) and the item — the block, or for
// MsgTransactions the one transaction — by its interned index, so
// neither end hashes anything: the sender resolved the index once for
// the whole fan-out, the receiver addresses its bit rows and
// suppression window with it, and the hash (or transaction) is read
// back from the network's tables only where an observer needs it. A
// block-carrying flight's body is the canonical one, Network.blockBody
// (bodyOf). srcPos is the sender's position in the destination's peer
// span at send time (-1 unknown); the receiver validates it and falls
// back to a scan. size is the serialized size counted at send time,
// carried so ingress accounting does not re-derive it. A free slab
// slot is the zero flight.
type flight struct {
	to, from int32
	srcPos   int32
	size     int32
	// item is the interned index of the block the message carries,
	// announces or asks for, or of the transaction it carries.
	item int32
	// txCount and txBytes are Message's TxCount and TxBytes; on
	// MsgTransactions txBytes is the transaction's encoded size.
	txCount, txBytes int32
	kind             MsgKind
}

// A flight is half a cache line; this fails to compile if it grows.
const _ = uint(32 - unsafe.Sizeof(flight{}))

// bodyOf is the block flight f carries: for MsgNewBlock and
// MsgCompactBlock the canonical body of its item, which rememberBlock
// publishes before any relay or serve can name the block; nil for
// every other kind.
func (net *Network) bodyOf(f *flight) *types.Block {
	if f.kind == MsgNewBlock || f.kind == MsgCompactBlock {
		return net.blockBody[f.item]
	}
	return nil
}

// viewOf fills the lane's observer view from a flight: field for field
// the Message the flight stands for.
func (ln *netLane) viewOf(f *flight) *Message {
	m := &ln.view
	*m = Message{Kind: f.kind, Block: ln.net.bodyOf(f), TxCount: int(f.txCount), TxBytes: int(f.txBytes)}
	switch f.kind {
	case MsgNewBlockHashes:
		m.hash1[0] = ln.net.blockIdx.hashes[f.item]
		m.Hashes = m.hash1[:1]
	case MsgGetBlock, MsgGetCompact, MsgGetBlockTxns, MsgBlockTxns:
		m.Want = ln.net.blockIdx.hashes[f.item]
	case MsgTransactions:
		m.TxBytes = 0
		m.tx1[0] = ln.net.txs[f.item]
		m.Txs = m.tx1[:1]
	}
	return m
}

// Wire-size constants for the fixed-size message parts.
const (
	msgHeaderBytes    = 16 // devp2p frame overhead
	hashEntryBytes    = types.HashLen + 1
	getBlockBodyBytes = types.HashLen
)

// Size returns the serialized message size in bytes, fed into the
// latency model's transfer term.
func (m *Message) Size() int {
	txBytes := m.TxBytes
	if m.Kind == MsgTransactions {
		txBytes = 0
		for _, tx := range m.Txs {
			txBytes += tx.EncodedSize()
		}
	}
	return wireSize(m.Kind, m.Block, len(m.Hashes), m.TxCount, txBytes)
}

// wireSize is the one size function: Message.Size and send's sizing of
// a flight (whose announcement names one hash) are both this. txBytes
// is MsgTransactions' encoded payload and MsgBlockTxns' response size.
func wireSize(kind MsgKind, b *types.Block, hashes, txCount, txBytes int) int {
	switch kind {
	case MsgNewBlock:
		if b == nil {
			return msgHeaderBytes
		}
		return msgHeaderBytes + b.EncodedSize()
	case MsgNewBlockHashes:
		return msgHeaderBytes + hashes*hashEntryBytes
	case MsgGetBlock, MsgGetCompact:
		return msgHeaderBytes + getBlockBodyBytes
	case MsgTransactions:
		return msgHeaderBytes + txBytes
	case MsgCompactBlock:
		if b == nil {
			return msgHeaderBytes
		}
		// Header and uncle references travel in full; the body is one
		// short ID per transaction.
		header := b.EncodedSize() - b.TxsSize()
		return msgHeaderBytes + header + relay.SketchWireBytes(len(b.Txs))
	case MsgGetBlockTxns:
		// Hash plus a count prefix and ~3-byte varint indexes.
		return msgHeaderBytes + types.HashLen + 1 + 3*txCount
	case MsgBlockTxns:
		return msgHeaderBytes + types.HashLen + txBytes
	default:
		return msgHeaderBytes
	}
}
