package types

import (
	"errors"
	"fmt"

	"repro/internal/rlp"
)

// Header carries the consensus-relevant fields of a block. TimeMillis
// is the miner-stamped creation time in simulation milliseconds
// (Ethereum stamps seconds; the simulator needs millisecond resolution
// for propagation-delay work).
type Header struct {
	ParentHash Hash
	Number     uint64
	Miner      Address
	// MinerLabel is the human-readable pool name (e.g. "Ethermine").
	// The real chain carries only the coinbase address; explorers
	// reverse-map it to a pool. Carrying the label alongside saves the
	// reproduction that reverse-mapping step without changing any
	// finding.
	MinerLabel string
	TimeMillis uint64
	Difficulty uint64
	GasLimit   uint64
	GasUsed    uint64
	TxRoot     Hash
	UncleRoot  Hash
	// Extra disambiguates deliberately distinct block versions mined
	// by the same pool at the same height with the same transaction
	// set (the paper's one-miner forks, §III-C5).
	Extra uint64
}

// Block is a full block: header plus transaction body plus referenced
// uncle (ommer) headers.
type Block struct {
	Header Header
	Txs    []*Transaction
	Uncles []Header

	hash       Hash
	hashed     bool
	sizeB      int
	sizeSet    bool
	txsSizeB   int
	txsSizeSet bool
}

// MaxUnclesPerBlock is Ethereum's limit of uncle references per block.
const MaxUnclesPerBlock = 2

// MaxUncleDepth is the maximum height distance at which an uncle can
// still be referenced (Ethereum: 7 generations).
const MaxUncleDepth = 7

var errBlockShape = errors.New("types: block RLP shape mismatch")

// NewBlock assembles a block and pre-computes its hash.
func NewBlock(header Header, txs []*Transaction, uncles []Header) *Block {
	header.TxRoot = txRoot(txs)
	header.UncleRoot = uncleRoot(uncles)
	b := &Block{Header: header, Txs: txs, Uncles: uncles}
	b.Hash()
	return b
}

// TxRoot derives the commitment over a transaction list — the value
// a block header carries in Header.TxRoot. Exported for the relay
// layer, which verifies compact-block reconstructions against it.
func TxRoot(txs []*Transaction) Hash { return txRoot(txs) }

// txRoot derives a commitment over the transaction list. A flat hash
// over the concatenated tx hashes stands in for the Merkle-Patricia
// root; it provides the same property the study needs (same tx set =>
// same root), which drives the one-miner-fork same-content analysis.
func txRoot(txs []*Transaction) Hash {
	return rootOf(len(txs), func(i int) Hash { return txs[i].Hash() })
}

func uncleRoot(uncles []Header) Hash {
	return rootOf(len(uncles), func(i int) Hash { return uncles[i].Hash() })
}

// rootOf hashes the concatenation of n hashes. A chain-only block has
// one filler transaction and at most MaxUnclesPerBlock uncles, so small
// roots are taken over a stack buffer.
func rootOf(n int, at func(int) Hash) Hash {
	var stack [4 * HashLen]byte
	buf := stack[:0]
	if n*HashLen > len(stack) {
		buf = make([]byte, 0, n*HashLen)
	}
	for i := 0; i < n; i++ {
		h := at(i)
		buf = append(buf, h[:]...)
	}
	return HashBytes(buf)
}

// Hash returns the header hash, computing and caching it on first use.
func (b *Block) Hash() Hash {
	if !b.hashed {
		b.hash = b.Header.Hash()
		b.hashed = true
	}
	return b.hash
}

// Hash returns the content hash of the header's RLP encoding.
func (h *Header) Hash() Hash {
	var buf [256]byte
	return HashBytes(h.appendRLP(buf[:0]))
}

// EncodedSize returns the full serialized block size in bytes
// (header + body), which the network model converts into transfer
// time. The value is cached.
func (b *Block) EncodedSize() int {
	if !b.sizeSet {
		b.sizeB = rlp.ListLen(b.payloadLen(b.TxsSize(), b.unclesPayloadLen()))
		b.sizeSet = true
	}
	return b.sizeB
}

// TxsSize returns the total serialized size of the block's
// transaction list in bytes, cached after the first call. The network
// model uses it to size compact sketches (full size minus body
// transactions) without re-walking the list per send.
func (b *Block) TxsSize() int {
	if !b.txsSizeSet {
		for _, tx := range b.Txs {
			b.txsSizeB += tx.EncodedSize()
		}
		b.txsSizeSet = true
	}
	return b.txsSizeB
}

// IsEmpty reports whether the block carries no transactions (the
// paper's §III-C3 selfish-mining signal).
func (b *Block) IsEmpty() bool { return len(b.Txs) == 0 }

// payloadLen is the encoded length of the header's fields, i.e. of its
// RLP list without the list header.
func (h *Header) payloadLen() int {
	return rlp.StringLen(h.ParentHash[:]) +
		rlp.UintLen(h.Number) +
		rlp.StringLen(h.Miner[:]) +
		rlp.StringLen([]byte(h.MinerLabel)) +
		rlp.UintLen(h.TimeMillis) +
		rlp.UintLen(h.Difficulty) +
		rlp.UintLen(h.GasLimit) +
		rlp.UintLen(h.GasUsed) +
		rlp.StringLen(h.TxRoot[:]) +
		rlp.StringLen(h.UncleRoot[:]) +
		rlp.UintLen(h.Extra)
}

func (h *Header) appendRLP(dst []byte) []byte {
	dst = rlp.AppendList(dst, h.payloadLen())
	dst = rlp.AppendString(dst, h.ParentHash[:])
	dst = rlp.AppendUint(dst, h.Number)
	dst = rlp.AppendString(dst, h.Miner[:])
	dst = rlp.AppendString(dst, []byte(h.MinerLabel))
	dst = rlp.AppendUint(dst, h.TimeMillis)
	dst = rlp.AppendUint(dst, h.Difficulty)
	dst = rlp.AppendUint(dst, h.GasLimit)
	dst = rlp.AppendUint(dst, h.GasUsed)
	dst = rlp.AppendString(dst, h.TxRoot[:])
	dst = rlp.AppendString(dst, h.UncleRoot[:])
	return rlp.AppendUint(dst, h.Extra)
}

func (b *Block) unclesPayloadLen() int {
	n := 0
	for i := range b.Uncles {
		n += rlp.ListLen(b.Uncles[i].payloadLen())
	}
	return n
}

// payloadLen is the encoded length of the block's three parts — header,
// transaction list, uncle list — given the two lists' payload lengths.
func (b *Block) payloadLen(txsLen, unclesLen int) int {
	return rlp.ListLen(b.Header.payloadLen()) + rlp.ListLen(txsLen) + rlp.ListLen(unclesLen)
}

// EncodeBlock serializes a block to RLP. It leaves the size caches of
// the block and its transactions alone.
func EncodeBlock(b *Block) []byte {
	txsLen, unclesLen := 0, b.unclesPayloadLen()
	for _, tx := range b.Txs {
		txsLen += rlp.ListLen(tx.payloadLen())
	}
	payload := b.payloadLen(txsLen, unclesLen)
	dst := rlp.AppendList(make([]byte, 0, rlp.ListLen(payload)), payload)
	dst = b.Header.appendRLP(dst)
	dst = rlp.AppendList(dst, txsLen)
	for _, tx := range b.Txs {
		dst = tx.appendRLP(dst)
	}
	dst = rlp.AppendList(dst, unclesLen)
	for i := range b.Uncles {
		dst = b.Uncles[i].appendRLP(dst)
	}
	return dst
}

// DecodeBlock parses a block from its RLP encoding.
func DecodeBlock(raw []byte) (*Block, error) {
	it, err := rlp.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("decode block: %w", err)
	}
	parts, err := it.AsList()
	if err != nil {
		return nil, fmt.Errorf("decode block: %w", err)
	}
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: %d parts", errBlockShape, len(parts))
	}
	header, err := headerFromItem(parts[0])
	if err != nil {
		return nil, err
	}
	txItems, err := parts[1].AsList()
	if err != nil {
		return nil, fmt.Errorf("decode block txs: %w", err)
	}
	txs := make([]*Transaction, len(txItems))
	for i, ti := range txItems {
		tx, err := txFromItem(ti)
		if err != nil {
			return nil, fmt.Errorf("decode block tx %d: %w", i, err)
		}
		txs[i] = tx
	}
	uncleItems, err := parts[2].AsList()
	if err != nil {
		return nil, fmt.Errorf("decode block uncles: %w", err)
	}
	uncles := make([]Header, len(uncleItems))
	for i, ui := range uncleItems {
		u, err := headerFromItem(ui)
		if err != nil {
			return nil, fmt.Errorf("decode block uncle %d: %w", i, err)
		}
		uncles[i] = u
	}
	// Verify body integrity against the header commitments, like a
	// real client: a block whose body does not match its header roots
	// is malformed.
	if got := txRoot(txs); got != header.TxRoot {
		return nil, fmt.Errorf("%w: tx root mismatch", errBlockShape)
	}
	if got := uncleRoot(uncles); got != header.UncleRoot {
		return nil, fmt.Errorf("%w: uncle root mismatch", errBlockShape)
	}
	blk := &Block{Header: header, Txs: txs, Uncles: uncles}
	blk.Hash()
	return blk, nil
}

func headerFromItem(it rlp.Item) (Header, error) {
	fields, err := it.AsList()
	if err != nil {
		return Header{}, fmt.Errorf("decode header: %w", err)
	}
	if len(fields) != 11 {
		return Header{}, fmt.Errorf("%w: header has %d fields", errBlockShape, len(fields))
	}
	var h Header
	if err := copyHash(&h.ParentHash, fields[0]); err != nil {
		return Header{}, fmt.Errorf("decode header parent: %w", err)
	}
	if h.Number, err = fields[1].AsUint(); err != nil {
		return Header{}, fmt.Errorf("decode header number: %w", err)
	}
	if err := copyAddress(&h.Miner, fields[2]); err != nil {
		return Header{}, fmt.Errorf("decode header miner: %w", err)
	}
	label, err := fields[3].AsBytes()
	if err != nil {
		return Header{}, fmt.Errorf("decode header label: %w", err)
	}
	h.MinerLabel = string(label)
	uints := []*uint64{&h.TimeMillis, &h.Difficulty, &h.GasLimit, &h.GasUsed}
	for i, dst := range uints {
		v, err := fields[4+i].AsUint()
		if err != nil {
			return Header{}, fmt.Errorf("decode header field %d: %w", 4+i, err)
		}
		*dst = v
	}
	if err := copyHash(&h.TxRoot, fields[8]); err != nil {
		return Header{}, fmt.Errorf("decode header txroot: %w", err)
	}
	if err := copyHash(&h.UncleRoot, fields[9]); err != nil {
		return Header{}, fmt.Errorf("decode header uncleroot: %w", err)
	}
	if h.Extra, err = fields[10].AsUint(); err != nil {
		return Header{}, fmt.Errorf("decode header extra: %w", err)
	}
	return h, nil
}
