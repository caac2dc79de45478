package types

import "repro/internal/rlp"

// Transaction is a simplified Ethereum transaction: a value transfer
// with a per-sender monotonically increasing nonce, a gas price bid
// and a fixed gas cost. This is the exact surface the paper's
// transaction metrics need: nonce ordering (out-of-order commits,
// §III-C2), fee incentives (empty blocks, §III-C3) and block capacity
// (commit delay, §III-C1).
type Transaction struct {
	Sender   Address
	To       Address
	Nonce    uint64
	Value    uint64
	GasPrice uint64
	Gas      uint64

	// Cached derived values (same idiom as Block): a transaction is
	// immutable after construction, and the network layer asks for its
	// hash and size once per reception along the gossip hot path.
	hash    Hash
	hashed  bool
	sizeB   int
	sizeSet bool
}

// TxGas is the intrinsic gas cost of a plain value transfer, matching
// Ethereum's G_transaction = 21,000.
const TxGas = 21_000

// Hash returns the content hash of the transaction's RLP encoding,
// computed and cached on first use.
func (tx *Transaction) Hash() Hash {
	if !tx.hashed {
		var buf [96]byte
		tx.hash = HashBytes(tx.appendRLP(buf[:0]))
		tx.hashed = true
	}
	return tx.hash
}

// EncodedSize returns the serialized size in bytes, used by the
// network model to derive transfer delays. The value is cached.
func (tx *Transaction) EncodedSize() int {
	if !tx.sizeSet {
		tx.sizeB = rlp.ListLen(tx.payloadLen())
		tx.sizeSet = true
	}
	return tx.sizeB
}

func (tx *Transaction) payloadLen() int {
	return rlp.StringLen(tx.Sender[:]) +
		rlp.StringLen(tx.To[:]) +
		rlp.UintLen(tx.Nonce) +
		rlp.UintLen(tx.Value) +
		rlp.UintLen(tx.GasPrice) +
		rlp.UintLen(tx.Gas)
}

func (tx *Transaction) appendRLP(dst []byte) []byte {
	dst = rlp.AppendList(dst, tx.payloadLen())
	dst = rlp.AppendString(dst, tx.Sender[:])
	dst = rlp.AppendString(dst, tx.To[:])
	dst = rlp.AppendUint(dst, tx.Nonce)
	dst = rlp.AppendUint(dst, tx.Value)
	dst = rlp.AppendUint(dst, tx.GasPrice)
	return rlp.AppendUint(dst, tx.Gas)
}
