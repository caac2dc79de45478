// Package types defines the chain data model of the reproduction:
// hashes, addresses, transactions, headers and blocks, together with
// their canonical RLP encodings and content hashes. Each type has one
// appendRLP method over rlp's append-only writer and one payloadLen
// beside it: hashes are taken over stack buffers, sizes are computed
// without encoding, and EncodeBlock/EncodeTx write into a buffer of
// exactly that size.
//
// The real Ethereum uses Keccak-256; the module is stdlib-only, so
// SHA-256 stands in (documented in DESIGN.md §2). Nothing in the study
// depends on the hash function beyond collision-resistant 32-byte
// identifiers.
package types

import (
	"crypto/sha256"
	"encoding/hex"
)

// HashLen is the byte length of content hashes.
const HashLen = 32

// AddressLen is the byte length of account/miner addresses.
const AddressLen = 20

// Hash is a 32-byte content identifier.
type Hash [HashLen]byte

// Address identifies an account or a miner coinbase.
type Address [AddressLen]byte

// ZeroHash is the all-zero hash, used as the genesis parent.
var ZeroHash Hash

// HashBytes hashes an arbitrary byte string.
func HashBytes(b []byte) Hash {
	return Hash(sha256.Sum256(b))
}

// String renders the hash as 0x-prefixed hex (shortened would hide
// collisions in logs, so the full digest is printed).
func (h Hash) String() string {
	return "0x" + hex.EncodeToString(h[:])
}

// Short returns the first 4 bytes in hex, for compact displays.
func (h Hash) Short() string {
	return hex.EncodeToString(h[:4])
}

// IsZero reports whether the hash is all zeroes.
func (h Hash) IsZero() bool { return h == ZeroHash }

// String renders the address as 0x-prefixed hex.
func (a Address) String() string {
	return "0x" + hex.EncodeToString(a[:])
}

// AddressFromString deterministically derives an address from a label,
// e.g. a mining pool name or a synthetic account id.
func AddressFromString(label string) Address {
	sum := sha256.Sum256([]byte(label))
	var a Address
	copy(a[:], sum[:AddressLen])
	return a
}
