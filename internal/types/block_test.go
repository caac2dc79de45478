package types

import (
	"testing"

	"repro/internal/rlp"
)

func sampleTx(nonce uint64) *Transaction {
	return &Transaction{
		Sender:   AddressFromString("alice"),
		To:       AddressFromString("bob"),
		Nonce:    nonce,
		Value:    1_000_000,
		GasPrice: 3_000_000_000,
		Gas:      TxGas,
	}
}

func sampleBlock(n uint64, txs []*Transaction) *Block {
	return NewBlock(Header{
		ParentHash: HashBytes([]byte("parent")),
		Number:     n,
		Miner:      AddressFromString("Ethermine"),
		MinerLabel: "Ethermine",
		TimeMillis: 1_000_000,
		Difficulty: 2_000_000,
		GasLimit:   8_000_000,
		GasUsed:    uint64(len(txs)) * TxGas,
	}, txs, nil)
}

func TestTxHashDependsOnAllFields(t *testing.T) {
	base := sampleTx(1)
	variants := []*Transaction{
		func() *Transaction { v := *base; v.Nonce++; return &v }(),
		func() *Transaction { v := *base; v.Value++; return &v }(),
		func() *Transaction { v := *base; v.GasPrice++; return &v }(),
		func() *Transaction { v := *base; v.Gas++; return &v }(),
		func() *Transaction { v := *base; v.To = AddressFromString("carol"); return &v }(),
		func() *Transaction { v := *base; v.Sender = AddressFromString("carol"); return &v }(),
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d hash collided with base", i)
		}
	}
}

func TestBlockHashCommitsToContent(t *testing.T) {
	a := sampleBlock(1, []*Transaction{sampleTx(0)})
	b := sampleBlock(1, []*Transaction{sampleTx(1)})
	if a.Hash() == b.Hash() {
		t.Fatal("different tx sets must produce different block hashes")
	}
	// Same content, different Extra => different hash (one-miner fork
	// versions are distinguishable).
	h := a.Header
	h.Extra = 1
	c := NewBlock(h, []*Transaction{sampleTx(0)}, nil)
	if c.Hash() == a.Hash() {
		t.Fatal("Extra must change the hash")
	}
	// Same content, same Extra => identical root and hash.
	d := sampleBlock(1, []*Transaction{sampleTx(0)})
	if d.Hash() != a.Hash() {
		t.Fatal("identical blocks must hash equal")
	}
	if d.Header.TxRoot != a.Header.TxRoot {
		t.Fatal("identical tx sets must produce the same TxRoot")
	}
}

func TestBlockIsEmpty(t *testing.T) {
	if !sampleBlock(1, nil).IsEmpty() {
		t.Error("no txs => empty")
	}
	if sampleBlock(1, []*Transaction{sampleTx(0)}).IsEmpty() {
		t.Error("txs => not empty")
	}
}

func TestBlockEncodedSizeGrowsWithTxs(t *testing.T) {
	small := sampleBlock(1, nil)
	var txs []*Transaction
	for i := uint64(0); i < 100; i++ {
		txs = append(txs, sampleTx(i))
	}
	big := sampleBlock(1, txs)
	if big.EncodedSize() <= small.EncodedSize() {
		t.Fatalf("size: empty %d, full %d", small.EncodedSize(), big.EncodedSize())
	}
	if got := rlp.EncodedLen(blockItem(big)); got != big.EncodedSize() {
		t.Fatalf("EncodedSize %d != the tree encoding's %d", big.EncodedSize(), got)
	}
}

func TestUncleConstants(t *testing.T) {
	if MaxUnclesPerBlock != 2 || MaxUncleDepth != 7 {
		t.Fatal("Ethereum uncle constants changed")
	}
}
