package rlp

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
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
			back, err := Decode(got)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !itemsEqual(back, c.item) {
				t.Fatalf("roundtrip: want %+v, got %+v", c.item, back)
			}
		})
	}
}

func itemsEqual(a, b Item) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == KindString {
		return bytes.Equal(a.Bytes, b.Bytes)
	}
	if len(a.List) != len(b.List) {
		return false
	}
	for i := range a.List {
		if !itemsEqual(a.List[i], b.List[i]) {
			return false
		}
	}
	return true
}

func TestLongList(t *testing.T) {
	var children []Item
	for i := 0; i < 100; i++ {
		children = append(children, Uint(uint64(i)))
	}
	it := List(children...)
	enc := Encode(it)
	if enc[0] < 0xf8 {
		t.Fatalf("expected long-list tag, got %x", enc[0])
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !itemsEqual(back, it) {
		t.Fatal("long list roundtrip mismatch")
	}
}

func TestUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		it := Uint(v)
		back, err := Decode(Encode(it))
		if err != nil {
			return false
		}
		got, err := back.AsUint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(b []byte) bool {
		it := String(b)
		back, err := Decode(Encode(it))
		if err != nil {
			return false
		}
		got, err := back.AsBytes()
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomItem builds a random RLP tree of bounded depth for the
// structural round-trip property test.
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

func TestTreeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		it := randomItem(r, 4)
		enc := Encode(it)
		if len(enc) != EncodedLen(it) {
			t.Fatalf("iteration %d: EncodedLen %d != len(Encode) %d", i, EncodedLen(it), len(enc))
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if !itemsEqual(back, it) {
			t.Fatalf("iteration %d: roundtrip mismatch", i)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrEmptyInput},
		{"trailing", []byte{0x80, 0x00}, ErrTrailingBytes},
		{"truncated short string", []byte{0x83, 'd', 'o'}, ErrTruncated},
		{"truncated long string header", []byte{0xb8}, ErrTruncated},
		{"truncated list", []byte{0xc8, 0x83, 'c'}, ErrTruncated},
		{"non-canonical single byte", []byte{0x81, 0x05}, ErrNonCanonical},
		{"non-canonical long form", append([]byte{0xb8, 0x01}, 0xff), ErrNonCanonical},
		{"length leading zero", []byte{0xb9, 0x00, 0x38}, ErrNonCanonical},
		{"truncated long list payload", []byte{0xf8, 0x39}, ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(c.in)
			if !errors.Is(err, c.want) {
				t.Fatalf("want %v, got %v", c.want, err)
			}
		})
	}
}

func TestDecodeNeverPanicsOnRandomInput(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(64))
		r.Read(b)
		// Any result is fine; it just must not panic, and on success
		// the re-encoding must be byte-identical (canonical codec).
		it, err := Decode(b)
		if err != nil {
			continue
		}
		if got := Encode(it); !bytes.Equal(got, b) {
			t.Fatalf("decode/encode not canonical: in %x out %x", b, got)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := String([]byte{1})
	l := List(s)
	if _, err := s.AsList(); !errors.Is(err, ErrNotList) {
		t.Errorf("AsList on string: %v", err)
	}
	if _, err := l.AsBytes(); !errors.Is(err, ErrNotString) {
		t.Errorf("AsBytes on list: %v", err)
	}
	if _, err := l.AsUint(); !errors.Is(err, ErrNotString) {
		t.Errorf("AsUint on list: %v", err)
	}
	children, err := l.AsList()
	if err != nil || len(children) != 1 {
		t.Errorf("AsList: %v %v", children, err)
	}
}

func TestAsUintErrors(t *testing.T) {
	if _, err := String(bytes.Repeat([]byte{1}, 9)).AsUint(); !errors.Is(err, ErrIntegerTooLarge) {
		t.Errorf("9-byte int: %v", err)
	}
	if _, err := String([]byte{0x00, 0x01}).AsUint(); !errors.Is(err, ErrLeadingZeroBytes) {
		t.Errorf("leading zero: %v", err)
	}
}

func TestUintBoundaries(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 1<<16 - 1, 1 << 16, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		it := Uint(v)
		got, err := it.AsUint()
		if err != nil || got != v {
			t.Errorf("uint %d: got %d, %v", v, got, err)
		}
		// Canonical: no leading zeroes.
		if len(it.Bytes) > 0 && it.Bytes[0] == 0 {
			t.Errorf("uint %d: leading zero in %x", v, it.Bytes)
		}
	}
}

func reflectDeepEqualGuard(t *testing.T) {
	t.Helper()
	// Item equality in tests goes through itemsEqual; make sure it
	// agrees with reflect.DeepEqual for simple values.
	a := List(Uint(5), String([]byte("x")))
	b := List(Uint(5), String([]byte("x")))
	if !itemsEqual(a, b) || !reflect.DeepEqual(Encode(a), Encode(b)) {
		t.Fatal("equality helpers disagree")
	}
}

func TestEqualityHelpers(t *testing.T) { reflectDeepEqualGuard(t) }

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
