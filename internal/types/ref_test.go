package types

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rlp"
)

// The Item-tree builders below are how headers, transactions and blocks
// were encoded before the append-only writer: build an rlp.Item tree on
// the heap, then rlp.Encode / rlp.EncodedLen it. They survive here only
// as the differential reference — the writer must produce the same
// bytes, and therefore the same hashes and sizes, for every value.

func headerItem(h *Header) rlp.Item {
	return rlp.List(
		rlp.String(h.ParentHash[:]),
		rlp.Uint(h.Number),
		rlp.String(h.Miner[:]),
		rlp.String([]byte(h.MinerLabel)),
		rlp.Uint(h.TimeMillis),
		rlp.Uint(h.Difficulty),
		rlp.Uint(h.GasLimit),
		rlp.Uint(h.GasUsed),
		rlp.String(h.TxRoot[:]),
		rlp.String(h.UncleRoot[:]),
		rlp.Uint(h.Extra),
	)
}

func txItem(tx *Transaction) rlp.Item {
	return rlp.List(
		rlp.String(tx.Sender[:]),
		rlp.String(tx.To[:]),
		rlp.Uint(tx.Nonce),
		rlp.Uint(tx.Value),
		rlp.Uint(tx.GasPrice),
		rlp.Uint(tx.Gas),
	)
}

func blockItem(b *Block) rlp.Item {
	txItems := make([]rlp.Item, len(b.Txs))
	for i, tx := range b.Txs {
		txItems[i] = txItem(tx)
	}
	uncleItems := make([]rlp.Item, len(b.Uncles))
	for i := range b.Uncles {
		uncleItems[i] = headerItem(&b.Uncles[i])
	}
	return rlp.List(headerItem(&b.Header), rlp.List(txItems...), rlp.List(uncleItems...))
}

// Integers and label lengths at the encoder's boundaries: the
// single-byte rule (0x7f / 0x80), every byte width, and the short/long
// header switch at 55 / 56 bytes.
var (
	edgeUints    = []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 1 << 32, 1<<64 - 1}
	edgeLabelLen = []int{0, 1, 1, 2, 54, 55, 56, 300}
)

func randUint(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return edgeUints[r.Intn(len(edgeUints))]
	}
	return r.Uint64() >> uint(r.Intn(64)) // a random width
}

func randLabel(r *rand.Rand) string {
	n := r.Intn(40)
	if r.Intn(3) == 0 {
		n = edgeLabelLen[r.Intn(len(edgeLabelLen))]
	}
	b := make([]byte, n)
	r.Read(b) // bytes on both sides of 0x80, which matters when n == 1
	return string(b)
}

func randHash(r *rand.Rand) (h Hash) {
	if r.Intn(8) > 0 { // sometimes the zero hash
		r.Read(h[:])
	}
	return h
}

func randAddress(r *rand.Rand) (a Address) {
	r.Read(a[:])
	return a
}

func randHeader(r *rand.Rand) Header {
	return Header{
		ParentHash: randHash(r),
		Number:     randUint(r),
		Miner:      randAddress(r),
		MinerLabel: randLabel(r),
		TimeMillis: randUint(r),
		Difficulty: randUint(r),
		GasLimit:   randUint(r),
		GasUsed:    randUint(r),
		TxRoot:     randHash(r),
		UncleRoot:  randHash(r),
		Extra:      randUint(r),
	}
}

func randTx(r *rand.Rand) *Transaction {
	return &Transaction{
		Sender:   randAddress(r),
		To:       randAddress(r),
		Nonce:    randUint(r),
		Value:    randUint(r),
		GasPrice: randUint(r),
		Gas:      randUint(r),
	}
}

func checkHeaderEncoding(t *testing.T, h *Header) {
	t.Helper()
	want := rlp.Encode(headerItem(h))
	if got := h.appendRLP(nil); !bytes.Equal(got, want) {
		t.Fatalf("header %+v:\nwriter %x\ntree   %x", *h, got, want)
	}
	if got := rlp.ListLen(h.payloadLen()); got != len(want) {
		t.Fatalf("header %+v: length %d, tree %d", *h, got, len(want))
	}
	if h.Hash() != HashBytes(want) {
		t.Fatalf("header %+v: hash differs from the tree encoding's", *h)
	}
}

func checkTxEncoding(t *testing.T, tx *Transaction) {
	t.Helper()
	want := rlp.Encode(txItem(tx))
	if got := EncodeTx(tx); !bytes.Equal(got, want) {
		t.Fatalf("tx %+v:\nwriter %x\ntree   %x", *tx, got, want)
	}
	if tx.EncodedSize() != len(want) || tx.EncodedSize() != rlp.EncodedLen(txItem(tx)) {
		t.Fatalf("tx %+v: size %d, tree %d", *tx, tx.EncodedSize(), len(want))
	}
	if tx.Hash() != HashBytes(want) {
		t.Fatalf("tx %+v: hash differs from the tree encoding's", *tx)
	}
}

func checkBlockEncoding(t *testing.T, b *Block) {
	t.Helper()
	want := rlp.Encode(blockItem(b))
	enc := EncodeBlock(b)
	if !bytes.Equal(enc, want) {
		t.Fatalf("block %d txs %d uncles:\nwriter %x\ntree   %x", len(b.Txs), len(b.Uncles), enc, want)
	}
	if b.EncodedSize() != len(want) || b.EncodedSize() != rlp.EncodedLen(blockItem(b)) {
		t.Fatalf("block size %d, tree %d", b.EncodedSize(), len(want))
	}
	txsSize := 0
	for _, tx := range b.Txs {
		txsSize += rlp.EncodedLen(txItem(tx))
	}
	if b.TxsSize() != txsSize {
		t.Fatalf("block txs size %d, tree %d", b.TxsSize(), txsSize)
	}
	if b.Hash() != HashBytes(rlp.Encode(headerItem(&b.Header))) {
		t.Fatal("block hash differs from the tree encoding's")
	}
	back, err := DecodeBlock(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Hash() != b.Hash() || back.Header != b.Header || len(back.Txs) != len(b.Txs) || len(back.Uncles) != len(b.Uncles) {
		t.Fatal("block changed across the round trip")
	}
	for i, tx := range back.Txs {
		if tx.Hash() != b.Txs[i].Hash() || !bytes.Equal(EncodeTx(tx), EncodeTx(b.Txs[i])) {
			t.Fatalf("tx %d changed across the round trip", i)
		}
	}
	for i := range back.Uncles {
		if back.Uncles[i] != b.Uncles[i] {
			t.Fatalf("uncle %d changed across the round trip", i)
		}
	}
}

// TestWriterMatchesTreeEncoder pins the append-only writer against the
// Item-tree encoder on 24,000 random values: equal bytes, equal hashes,
// equal sizes, and blocks that survive EncodeBlock → DecodeBlock.
func TestWriterMatchesTreeEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 10_000; i++ {
		h := randHeader(r)
		checkHeaderEncoding(t, &h)
		checkTxEncoding(t, randTx(r))
	}
	for i := 0; i < 4_000; i++ {
		txs := make([]*Transaction, r.Intn(6))
		for k := range txs {
			txs[k] = randTx(r)
		}
		uncles := make([]Header, r.Intn(4))
		for k := range uncles {
			uncles[k] = randHeader(r)
		}
		checkBlockEncoding(t, NewBlock(randHeader(r), txs, uncles))
	}
	// Past the stack buffers: roots over more hashes than rootOf keeps
	// on the stack, a header longer than Header.Hash's buffer.
	txs := make([]*Transaction, 12)
	for k := range txs {
		txs[k] = randTx(r)
	}
	long := randHeader(r)
	long.MinerLabel = strings.Repeat("x", 1000)
	checkHeaderEncoding(t, &long)
	checkBlockEncoding(t, NewBlock(long, txs, []Header{long, long, long, long, long}))
}

// FuzzHeaderEncoding drives the same header comparison with arbitrary
// field values, and checks the encoding decodes back to the header.
func FuzzHeaderEncoding(f *testing.F) {
	f.Add([]byte{}, uint64(0), "", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add([]byte("parent"), uint64(0x7f), "\x7f", uint64(0x80), uint64(0xff), uint64(1<<32), uint64(1<<64-1), uint64(1))
	f.Add([]byte{0xff}, uint64(201_086), "\x80", uint64(1_554_076_800_000), uint64(300_000_000_000), uint64(8_000_000), uint64(21_000), uint64(2))
	f.Add([]byte("p"), uint64(1), strings.Repeat("a", 55), uint64(1), uint64(1), uint64(1), uint64(1), uint64(0))
	f.Add([]byte("p"), uint64(1), strings.Repeat("b", 56), uint64(256), uint64(65_536), uint64(1<<24), uint64(1<<40), uint64(1<<56))
	f.Add([]byte("p"), uint64(1), strings.Repeat("c", 300), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, seed []byte, number uint64, label string, timeMs, difficulty, gasLimit, gasUsed, extra uint64) {
		h := Header{
			ParentHash: HashBytes(seed),
			Number:     number,
			Miner:      AddressFromString(label),
			MinerLabel: label,
			TimeMillis: timeMs,
			Difficulty: difficulty,
			GasLimit:   gasLimit,
			GasUsed:    gasUsed,
			TxRoot:     HashBytes(append(seed, 't')),
			Extra:      extra,
		}
		checkHeaderEncoding(t, &h)
		it, err := rlp.Decode(h.appendRLP(nil))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		back, err := headerFromItem(it)
		if err != nil || back != h {
			t.Fatalf("header %+v decoded to %+v (%v)", h, back, err)
		}
	})
}
