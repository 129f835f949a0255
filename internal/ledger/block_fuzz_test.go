package ledger

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalBlock holds the block decoder to its contract on arbitrary
// input: UnmarshalBlock returns an error, never panics; a block it accepts
// carries no nil transaction (every commit stage dereferences them); and
// it re-marshals to bytes that decode and re-marshal to the same bytes.
// Blocks arrive from the orderer, from other peers over the wire and from
// the durable block store, so they are untrusted. The committed corpus
// lives under testdata/fuzz/FuzzUnmarshalBlock.
func FuzzUnmarshalBlock(f *testing.F) {
	c := NewChain("ch1")
	valid, err := nextBlock(f, c, []*Transaction{makeTx("t1"), makeTx("t2")}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(nullTxBlockBytes(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBlock(data)
		if err != nil {
			return
		}
		for i, tx := range b.Transactions {
			if tx == nil {
				t.Fatalf("accepted block holds a nil transaction at %d", i)
			}
		}
		first, err := b.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of an accepted block: %v", err)
		}
		again, err := UnmarshalBlock(first)
		if err != nil {
			t.Fatalf("decoding a re-marshaled block: %v\n%s", err, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("second re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal is not stable:\n%s\n%s", first, second)
		}
	})
}
