package rlp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Canonical test vectors from the Ethereum wiki / yellow paper
// appendix B.
func TestEncodeVectors(t *testing.T) {
	cases := []struct {
		name string
		item Item
		want []byte
	}{
		{"empty string", String(nil), []byte{0x80}},
		{"single low byte", String([]byte{0x00}), []byte{0x00}},
		{"single byte 0x7f", String([]byte{0x7f}), []byte{0x7f}},
		{"single byte 0x80", String([]byte{0x80}), []byte{0x81, 0x80}},
		{"dog", String([]byte("dog")), []byte{0x83, 'd', 'o', 'g'}},
		{"empty list", List(), []byte{0xc0}},
		{
			"cat dog list",
			List(String([]byte("cat")), String([]byte("dog"))),
			[]byte{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'},
		},
		{"zero uint", Uint(0), []byte{0x80}},
		{"uint 15", Uint(15), []byte{0x0f}},
		{"uint 1024", Uint(1024), []byte{0x82, 0x04, 0x00}},
		{
			"set of three",
			List(List(), List(List()), List(List(), List(List()))),
			[]byte{0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0},
		},
		{
			"56-byte string uses long form",
			String(bytes.Repeat([]byte{'a'}, 56)),
			append([]byte{0xb8, 56}, bytes.Repeat([]byte{'a'}, 56)...),
		},
		{
			"1024-byte string length encoding",
			String(bytes.Repeat([]byte{'b'}, 1024)),
			append([]byte{0xb9, 0x04, 0x00}, bytes.Repeat([]byte{'b'}, 1024)...),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Encode(c.item)
			if !bytes.Equal(got, c.want) {
				t.Fatalf("encode: want %x, got %x", c.want, got)
			}
			if n := EncodedLen(c.item); n != len(c.want) {
				t.Fatalf("encodedLen: want %d, got %d", len(c.want), n)
			}
		})
	}
}

// header is the string or list header RLP puts before a payload of n
// bytes, written out from the yellow paper's rule rather than through
// the encoder.
func header(base byte, n int) []byte {
	if n <= 55 {
		return []byte{base + byte(n)}
	}
	var be []byte
	for v := n; v > 0; v >>= 8 {
		be = append([]byte{byte(v)}, be...)
	}
	return append([]byte{base + 55 + byte(len(be))}, be...)
}

// beValue reads a big-endian byte string as an integer.
func beValue(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func TestLongList(t *testing.T) {
	var children []Item
	var payload []byte
	for i := 0; i < 100; i++ {
		children = append(children, Uint(uint64(i)))
		payload = append(payload, Encode(Uint(uint64(i)))...)
	}
	enc := Encode(List(children...))
	if enc[0] < 0xf8 {
		t.Fatalf("expected long-list tag, got %x", enc[0])
	}
	if want := append(header(0xc0, len(payload)), payload...); !bytes.Equal(enc, want) {
		t.Fatalf("long list: want %x, got %x", want, enc)
	}
}

// TestUintRoundTrip: Uint(v) is v's minimal big-endian form — it reads
// back as v, has no leading zero byte, and encodes as that string.
func TestUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		it := Uint(v)
		canonical := len(it.Bytes) == 0 || it.Bytes[0] != 0
		return it.Kind == KindString && canonical && beValue(it.Bytes) == v &&
			bytes.Equal(Encode(it), Encode(String(it.Bytes)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStringRoundTripProperty: a string encodes as itself when it is
// one byte below 0x80, and otherwise as the header for its length
// followed by the bytes unchanged.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(b []byte) bool {
		want := append(header(0x80, len(b)), b...)
		if len(b) == 1 && b[0] < 0x80 {
			want = b
		}
		return bytes.Equal(Encode(String(b)), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomItem builds a random RLP tree of bounded depth for the
// structural property test.
func randomItem(r *rand.Rand, depth int) Item {
	if depth == 0 || r.Intn(2) == 0 {
		b := make([]byte, r.Intn(70))
		r.Read(b)
		return String(b)
	}
	n := r.Intn(5)
	children := make([]Item, n)
	for i := range children {
		children[i] = randomItem(r, depth-1)
	}
	return List(children...)
}

// TestTreeRoundTripProperty: every list in a random tree encodes as
// the list header for its payload followed by its children's
// encodings, and EncodedLen agrees with the bytes.
func TestTreeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var check func(it Item) []byte
	check = func(it Item) []byte {
		enc := Encode(it)
		if len(enc) != EncodedLen(it) {
			t.Fatalf("EncodedLen %d != len(Encode) %d", EncodedLen(it), len(enc))
		}
		if it.Kind != KindList {
			return enc
		}
		var payload []byte
		for _, child := range it.List {
			payload = append(payload, check(child)...)
		}
		if want := append(header(0xc0, len(payload)), payload...); !bytes.Equal(enc, want) {
			t.Fatalf("list: want %x, got %x", want, enc)
		}
		return enc
	}
	for i := 0; i < 500; i++ {
		check(randomItem(r, 4))
	}
}

func TestUintBoundaries(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 1<<16 - 1, 1 << 16, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		it := Uint(v)
		if got := beValue(it.Bytes); got != v {
			t.Errorf("uint %d: reads back as %d", v, got)
		}
		// Canonical: no leading zeroes.
		if len(it.Bytes) > 0 && it.Bytes[0] == 0 {
			t.Errorf("uint %d: leading zero in %x", v, it.Bytes)
		}
	}
}

// TestAppendMatchesEncode: the Append*/…Len functions and the Item-tree
// front end are one encoder, so they agree on every boundary — the
// single-byte rule, each integer width, the 55/56-byte header switch,
// for strings and for lists.
func TestAppendMatchesEncode(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 1 << 32, 1<<56 - 1, 1 << 56, 1<<64 - 1} {
		want := Encode(Uint(v))
		if got := AppendUint(nil, v); !bytes.Equal(got, want) || UintLen(v) != len(want) {
			t.Fatalf("uint %#x: append %x (len %d), encode %x", v, got, UintLen(v), want)
		}
	}
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 54, 55, 56, 57, 255, 256, 300, 70_000} {
		b := make([]byte, n)
		r.Read(b)
		for _, first := range []byte{0x00, 0x7f, 0x80, 0xff} {
			if n > 0 {
				b[0] = first
			}
			want := Encode(String(b))
			if got := AppendString([]byte{0xaa}, b); !bytes.Equal(got[1:], want) || StringLen(b) != len(want) {
				t.Fatalf("string of %d bytes (first %#x): append %x, encode %x", n, first, got[1:], want)
			}
		}
		// A list whose payload is n bytes: n one-byte items.
		items := make([]Item, n)
		for i := range items {
			items[i] = String([]byte{0x01})
		}
		want := Encode(List(items...))
		got := AppendList(nil, n)
		for range items {
			got = AppendString(got, []byte{0x01})
		}
		if !bytes.Equal(got, want) || ListLen(n) != len(want) {
			t.Fatalf("list with %d payload bytes: append %x, encode %x", n, got, want)
		}
	}
}
