package types

import "repro/internal/rlp"

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

// NewBlock assembles a block and pre-computes its hash.
func NewBlock(header Header, txs []*Transaction, uncles []Header) *Block {
	header.TxRoot = txRoot(txs)
	header.UncleRoot = uncleRoot(uncles)
	b := &Block{Header: header, Txs: txs, Uncles: uncles}
	b.Hash()
	return b
}

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
