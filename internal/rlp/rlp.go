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
// single-byte and long-form rules exist once. Decode returns the Item
// tree; AsUint and Uint convert between Go integers and the canonical
// minimal big-endian byte strings.
package rlp

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// Decoding errors. They are exported so callers (e.g. the wire codec)
// can distinguish malformed input classes.
var (
	ErrEmptyInput       = errors.New("rlp: empty input")
	ErrTrailingBytes    = errors.New("rlp: trailing bytes after value")
	ErrTruncated        = errors.New("rlp: input truncated")
	ErrNonCanonical     = errors.New("rlp: non-canonical encoding")
	ErrLengthOverflow   = errors.New("rlp: length overflows int")
	ErrNotString        = errors.New("rlp: item is not a string")
	ErrNotList          = errors.New("rlp: item is not a list")
	ErrIntegerTooLarge  = errors.New("rlp: integer larger than uint64")
	ErrLeadingZeroBytes = errors.New("rlp: integer has leading zero bytes")
)

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

// AsUint interprets a string item as a canonical unsigned integer.
func (it Item) AsUint() (uint64, error) {
	if it.Kind != KindString {
		return 0, ErrNotString
	}
	if len(it.Bytes) > 8 {
		return 0, ErrIntegerTooLarge
	}
	if len(it.Bytes) > 0 && it.Bytes[0] == 0 {
		return 0, ErrLeadingZeroBytes
	}
	var v uint64
	for _, b := range it.Bytes {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// AsBytes returns the payload of a string item.
func (it Item) AsBytes() ([]byte, error) {
	if it.Kind != KindString {
		return nil, ErrNotString
	}
	return it.Bytes, nil
}

// AsList returns the children of a list item.
func (it Item) AsList() ([]Item, error) {
	if it.Kind != KindList {
		return nil, ErrNotList
	}
	return it.List, nil
}

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

// Decode parses a single RLP value from b, requiring the whole input to
// be consumed.
func Decode(b []byte) (Item, error) {
	if len(b) == 0 {
		return Item{}, ErrEmptyInput
	}
	it, rest, err := decodeOne(b)
	if err != nil {
		return Item{}, err
	}
	if len(rest) != 0 {
		return Item{}, ErrTrailingBytes
	}
	return it, nil
}

func decodeOne(b []byte) (Item, []byte, error) {
	if len(b) == 0 {
		return Item{}, nil, ErrTruncated
	}
	tag := b[0]
	switch {
	case tag < 0x80: // single byte
		return String(b[:1]), b[1:], nil
	case tag <= 0xb7: // short string
		n := int(tag - 0x80)
		if len(b) < 1+n {
			return Item{}, nil, ErrTruncated
		}
		payload := b[1 : 1+n]
		if n == 1 && payload[0] < 0x80 {
			return Item{}, nil, fmt.Errorf("%w: single byte below 0x80 must self-encode", ErrNonCanonical)
		}
		return String(payload), b[1+n:], nil
	case tag <= 0xbf: // long string
		lenN := int(tag - 0xb7)
		payload, rest, err := decodeLongPayload(b[1:], lenN, 55)
		if err != nil {
			return Item{}, nil, err
		}
		return String(payload), rest, nil
	case tag <= 0xf7: // short list
		n := int(tag - 0xc0)
		if len(b) < 1+n {
			return Item{}, nil, ErrTruncated
		}
		items, err := decodeListPayload(b[1 : 1+n])
		if err != nil {
			return Item{}, nil, err
		}
		return List(items...), b[1+n:], nil
	default: // long list
		lenN := int(tag - 0xf7)
		payload, rest, err := decodeLongPayload(b[1:], lenN, 55)
		if err != nil {
			return Item{}, nil, err
		}
		items, err := decodeListPayload(payload)
		if err != nil {
			return Item{}, nil, err
		}
		return List(items...), rest, nil
	}
}

// decodeLongPayload reads a lenN-byte big-endian length followed by
// that many payload bytes. minLen is the smallest payload length that
// legitimately requires the long form (anything smaller is
// non-canonical).
func decodeLongPayload(b []byte, lenN, minLen int) (payload, rest []byte, err error) {
	if len(b) < lenN {
		return nil, nil, ErrTruncated
	}
	if b[0] == 0 {
		return nil, nil, fmt.Errorf("%w: length has leading zero", ErrNonCanonical)
	}
	var n uint64
	for _, c := range b[:lenN] {
		if n > (1<<56)-1 {
			return nil, nil, ErrLengthOverflow
		}
		n = n<<8 | uint64(c)
	}
	if n <= uint64(minLen) {
		return nil, nil, fmt.Errorf("%w: long form used for short payload", ErrNonCanonical)
	}
	if uint64(len(b)-lenN) < n {
		return nil, nil, ErrTruncated
	}
	return b[lenN : lenN+int(n)], b[lenN+int(n):], nil
}

func decodeListPayload(b []byte) ([]Item, error) {
	var items []Item
	for len(b) > 0 {
		it, rest, err := decodeOne(b)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		b = rest
	}
	return items, nil
}
