// Package rlp implements Ethereum's Recursive Length Prefix
// serialization (yellow paper, appendix B). The wire format matters to
// the reproduction because serialized message sizes feed the network
// simulator's bandwidth/latency model, and because RLP is the substrate
// every real Ethereum client uses for block and transaction encoding.
//
// The data model is the standard RLP one: an Item is either a byte
// string or a list of Items. There is one encoder: AppendString,
// AppendUint and AppendList write into a caller's buffer (the block and
// transaction hashes are taken over stack buffers that way), and Encode
// walks an Item tree through the same three functions, so the
// single-byte and long-form rules exist once. The program only hashes
// and sizes what it encodes, so there is no decoder.
package rlp

import (
	"encoding/binary"
	"math/bits"
)

// Kind discriminates the two RLP item kinds.
type Kind int

// RLP item kinds.
const (
	KindString Kind = iota + 1
	KindList
)

// Item is a node of an RLP value tree: either a byte string
// (Kind == KindString, Bytes set) or a list (Kind == KindList, List
// set).
type Item struct {
	Kind  Kind
	Bytes []byte
	List  []Item
}

// String constructs a string item. The byte slice is used as-is; the
// caller must not mutate it afterwards.
func String(b []byte) Item { return Item{Kind: KindString, Bytes: b} }

// List constructs a list item from the given children.
func List(items ...Item) Item { return Item{Kind: KindList, List: items} }

// Uint constructs the canonical RLP encoding of an unsigned integer: a
// big-endian byte string with no leading zeroes (zero encodes as the
// empty string).
func Uint(v uint64) Item {
	var buf [8]byte
	return String(append([]byte(nil), minimalBE(&buf, v)...))
}

// minimalBE writes v big-endian into buf and returns the suffix without
// leading zero bytes (empty for zero).
func minimalBE(buf *[8]byte, v uint64) []byte {
	binary.BigEndian.PutUint64(buf[:], v)
	return buf[8-beLen(v):]
}

// beLen is the length of v's minimal big-endian form.
func beLen(v uint64) int { return (bits.Len64(v) + 7) / 8 }

// AppendString appends the encoding of a byte string to dst.
func AppendString(dst, b []byte) []byte {
	if len(b) == 1 && b[0] < 0x80 {
		return append(dst, b[0])
	}
	return append(appendHeader(dst, 0x80, len(b)), b...)
}

// AppendUint appends the canonical encoding of an unsigned integer.
func AppendUint(dst []byte, v uint64) []byte {
	var buf [8]byte
	return AppendString(dst, minimalBE(&buf, v))
}

// AppendList appends the header of a list whose items encode to
// payload bytes in total; the caller appends the items next.
func AppendList(dst []byte, payload int) []byte {
	return appendHeader(dst, 0xc0, payload)
}

// StringLen returns the number of bytes AppendString(nil, b) writes.
func StringLen(b []byte) int {
	if len(b) == 1 && b[0] < 0x80 {
		return 1
	}
	return headerLen(len(b)) + len(b)
}

// UintLen returns the number of bytes AppendUint(nil, v) writes.
func UintLen(v uint64) int {
	var buf [8]byte
	return StringLen(minimalBE(&buf, v))
}

// ListLen returns the encoded length of a list, header included, whose
// items encode to payload bytes in total.
func ListLen(payload int) int { return headerLen(payload) + payload }

// Encode serializes the item tree to its RLP byte representation.
func Encode(it Item) []byte {
	return appendItem(make([]byte, 0, EncodedLen(it)), it)
}

// EncodedLen returns the length of Encode(it) without allocating the
// encoding.
func EncodedLen(it Item) int {
	if it.Kind == KindList {
		return ListLen(payloadLen(it.List))
	}
	return StringLen(it.Bytes)
}

func payloadLen(items []Item) int {
	n := 0
	for _, child := range items {
		n += EncodedLen(child)
	}
	return n
}

func appendItem(dst []byte, it Item) []byte {
	if it.Kind != KindList {
		return AppendString(dst, it.Bytes)
	}
	dst = AppendList(dst, payloadLen(it.List))
	for _, child := range it.List {
		dst = appendItem(dst, child)
	}
	return dst
}

func headerLen(payload int) int {
	if payload <= 55 {
		return 1
	}
	return 1 + beLen(uint64(payload))
}

func appendHeader(dst []byte, base byte, payload int) []byte {
	if payload <= 55 {
		return append(dst, base+byte(payload))
	}
	var buf [8]byte
	be := minimalBE(&buf, uint64(payload))
	return append(append(dst, base+55+byte(len(be))), be...)
}
