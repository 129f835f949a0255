package ledger

import (
	"testing"

	"fabriccrdt/internal/rwset"
)

func makeTx(id string) *Transaction {
	b := rwset.NewBuilder()
	b.AddRead(id+"-key", rwset.Version{BlockNum: 1})
	b.AddWrite(rwset.Write{Key: id + "-key", Value: []byte("v-" + id)})
	return &Transaction{
		ID:        id,
		ChannelID: "ch1",
		Chaincode: "iot",
		RWSet:     b.Build(),
	}
}

// nextBlock builds a block chained onto c's last block.
func nextBlock(t testing.TB, c *Chain, txs []*Transaction) *Block {
	t.Helper()
	last := c.Last()
	dataHash, err := ComputeDataHash(txs)
	if err != nil {
		t.Fatal(err)
	}
	return &Block{
		Header: BlockHeader{
			Number:   last.Header.Number + 1,
			PrevHash: last.HeaderHash(),
			DataHash: dataHash,
		},
		Transactions: txs,
		Metadata:     BlockMetadata{ValidationCodes: make([]ValidationCode, len(txs))},
	}
}

func TestChainAppendAndVerify(t *testing.T) {
	c := NewChain("ch1")
	if c.Height() != 1 {
		t.Fatalf("genesis height = %d", c.Height())
	}
	for i := 0; i < 5; i++ {
		b := nextBlock(t, c, []*Transaction{makeTx("tx" + string(rune('0'+i)))})
		if err := c.Append(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if c.Height() != 6 {
		t.Fatalf("height = %d, want 6", c.Height())
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got, err := c.Get(3)
	if err != nil || got.Header.Number != 3 {
		t.Fatalf("Get(3) = %+v, %v", got, err)
	}
	if len(c.Blocks()) != 6 {
		t.Fatal("Blocks() length wrong")
	}
}

func TestAppendRejectsBadNumber(t *testing.T) {
	c := NewChain("ch1")
	b := nextBlock(t, c, []*Transaction{makeTx("a")})
	b.Header.Number = 7
	if err := c.Append(b); err == nil {
		t.Fatal("out-of-sequence block accepted")
	}
}

func TestAppendRejectsBadPrevHash(t *testing.T) {
	c := NewChain("ch1")
	b := nextBlock(t, c, []*Transaction{makeTx("a")})
	b.Header.PrevHash = []byte("forged")
	if err := c.Append(b); err == nil {
		t.Fatal("forged prev-hash accepted")
	}
}

func TestAppendRejectsTamperedData(t *testing.T) {
	c := NewChain("ch1")
	b := nextBlock(t, c, []*Transaction{makeTx("a")})
	b.Transactions[0].Args = [][]byte{[]byte("injected")} // data no longer matches DataHash
	if err := c.Append(b); err == nil {
		t.Fatal("tampered block accepted")
	}
}

func TestVerifyDetectsRetroactiveTampering(t *testing.T) {
	c := NewChain("ch1")
	b := nextBlock(t, c, []*Transaction{makeTx("a")})
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
	// Tamper after append.
	b.Transactions[0].Chaincode = "evil"
	if err := c.Verify(); err == nil {
		t.Fatal("retroactive tampering not detected")
	}
}

func TestGetOutOfRange(t *testing.T) {
	c := NewChain("ch1")
	if _, err := c.Get(9); err == nil {
		t.Fatal("want error for missing block")
	}
}

func TestTransactionMarshalRoundTrip(t *testing.T) {
	tx := makeTx("t1")
	tx.Endorsements = []Endorsement{{Endorser: []byte("id"), Signature: []byte("sig")}}
	tx.SubmitUnixNano = 12345
	data, err := tx.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTransaction(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != tx.ID || back.Chaincode != tx.Chaincode || back.SubmitUnixNano != 12345 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if !back.RWSet.Equal(tx.RWSet) {
		t.Fatal("rwset lost in round trip")
	}
}

func TestBlockMarshalRoundTrip(t *testing.T) {
	c := NewChain("ch1")
	b := nextBlock(t, c, []*Transaction{makeTx("a"), makeTx("b")})
	b.Metadata.ValidationCodes = []ValidationCode{CodeValid, CodeMVCCConflict}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.Number != b.Header.Number || len(back.Transactions) != 2 {
		t.Fatalf("round trip: %+v", back.Header)
	}
	if back.Metadata.ValidationCodes[1] != CodeMVCCConflict {
		t.Fatal("validation codes lost")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalTransaction([]byte("{")); err == nil {
		t.Fatal("want tx decode error")
	}
	if _, err := UnmarshalBlock([]byte("{")); err == nil {
		t.Fatal("want block decode error")
	}
	// A null transaction entry under a consistent data hash decodes to a
	// nil *Transaction, which the commit pipeline would dereference.
	if _, err := UnmarshalBlock(nullTxBlockBytes(t)); err == nil {
		t.Fatal("want block decode error for a null transaction")
	}
}

// nullTxBlockBytes marshals a valid one-transaction block with a nil
// transaction appended and its data hash recomputed over both entries.
func nullTxBlockBytes(t testing.TB) []byte {
	t.Helper()
	c := NewChain("ch1")
	txs := []*Transaction{makeTx("t1"), nil}
	b := nextBlock(t, c, txs)
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestEndorsementPayloadIsStable(t *testing.T) {
	tx := makeTx("t1")
	p1, err := tx.EndorsementPayload()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tx.EndorsementPayload()
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != string(p2) {
		t.Fatal("payload not deterministic")
	}
	// Payload must change when the rwset changes.
	tx.RWSet.Writes[0].Value = []byte("other")
	p3, err := tx.EndorsementPayload()
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) == string(p3) {
		t.Fatal("payload insensitive to rwset")
	}
}

func TestValidationCodeStrings(t *testing.T) {
	cases := map[ValidationCode]string{
		CodeNotValidated:       "NOT_VALIDATED",
		CodeValid:              "VALID",
		CodeMVCCConflict:       "MVCC_CONFLICT",
		CodeEndorsementFailure: "ENDORSEMENT_POLICY_FAILURE",
		CodeBadSignature:       "BAD_SIGNATURE",
		CodeDuplicate:          "DUPLICATE_TXID",
		CodeCRDTMerged:         "CRDT_MERGED",
	}
	for code, want := range cases {
		if code.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(code), code.String(), want)
		}
	}
	if !CodeValid.Committed() || !CodeCRDTMerged.Committed() {
		t.Fatal("valid codes must report Committed")
	}
	if CodeMVCCConflict.Committed() || CodeNotValidated.Committed() {
		t.Fatal("failure codes must not report Committed")
	}
}

func TestTxSize(t *testing.T) {
	tx := makeTx("t1")
	if tx.Size() <= 0 {
		t.Fatal("size must be positive")
	}
}

func BenchmarkComputeDataHash(b *testing.B) {
	txs := make([]*Transaction, 100)
	for i := range txs {
		txs[i] = makeTx("tx")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeDataHash(txs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestChainCheckNext(t *testing.T) {
	c := NewChain("ch1")
	good := nextBlock(t, c, []*Transaction{makeTx("a")})

	// Pre-flight of a valid next block passes and does not append.
	if err := c.CheckNext(good); err != nil {
		t.Fatalf("CheckNext(valid) = %v", err)
	}
	if c.Height() != 1 {
		t.Fatalf("CheckNext appended: height = %d", c.Height())
	}
	// The memo path: appending the pre-flighted block still works.
	if err := c.Append(good); err != nil {
		t.Fatalf("Append after CheckNext: %v", err)
	}

	// Wrong number (replays the same block) is rejected.
	if err := c.CheckNext(good); err == nil {
		t.Fatal("CheckNext accepted an already-appended number")
	}
	// Severed prev-hash is rejected.
	bad := nextBlock(t, c, []*Transaction{makeTx("b")})
	bad.Header.PrevHash = []byte("severed")
	if err := c.CheckNext(bad); err == nil {
		t.Fatal("CheckNext accepted a severed prev-hash")
	}
	// Data-hash mismatch is rejected, and a rejected block is not
	// memoized: Append must fail too.
	forged := nextBlock(t, c, []*Transaction{makeTx("c")})
	forged.Header.DataHash = []byte("forged")
	if err := c.CheckNext(forged); err == nil {
		t.Fatal("CheckNext accepted a forged data hash")
	}
	if err := c.Append(forged); err == nil {
		t.Fatal("Append accepted a forged data hash")
	}
}
