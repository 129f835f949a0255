package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// crdtTx builds a transaction with one CRDT write of value to key.
func crdtTx(id, key, value string) *ledger.Transaction {
	return &ledger.Transaction{
		ID: id,
		RWSet: rwset.ReadWriteSet{
			Reads:  []rwset.Read{{Key: key}},
			Writes: []rwset.Write{{Key: key, Value: []byte(value), IsCRDT: true}},
		},
	}
}

func plainTx(id, key, value string) *ledger.Transaction {
	return &ledger.Transaction{
		ID: id,
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: key, Value: []byte(value)}},
		},
	}
}

func blockOf(txs ...*ledger.Transaction) *ledger.Block {
	return &ledger.Block{
		Header:       ledger.BlockHeader{Number: 1},
		Transactions: txs,
	}
}

func decodeJSON(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON %q: %v", data, err)
	}
	return v
}

// TestPaperListing1and2 is the end-to-end golden test of the paper's §5.1
// example: two CRDT transactions writing to key "Device1" merge so that BOTH
// write sets carry the identical converged two-reading document.
func TestPaperListing1and2(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	tx1 := crdtTx("t1", "Device1", `{"tempReadings":[{"temperature":"15"}]}`)
	tx2 := crdtTx("t2", "Device1", `{"tempReadings":[{"temperature":"20"}]}`)
	block := blockOf(tx1, tx2)
	codes := make([]ledger.ValidationCode, 2)
	res, err := e.MergeBlock(block, codes)
	if err != nil {
		t.Fatal(err)
	}
	if res.MergedTxCount != 2 {
		t.Fatalf("merged = %d, want 2", res.MergedTxCount)
	}
	if codes[0] != ledger.CodeCRDTMerged || codes[1] != ledger.CodeCRDTMerged {
		t.Fatalf("codes = %v", codes)
	}
	want := decodeJSON(t, []byte(`{"tempReadings":[{"temperature":"15"},{"temperature":"20"}]}`))
	got1 := decodeJSON(t, tx1.RWSet.Writes[0].Value)
	got2 := decodeJSON(t, tx2.RWSet.Writes[0].Value)
	if !reflect.DeepEqual(got1, want) {
		t.Fatalf("tx1 write = %v, want %v", got1, want)
	}
	if !reflect.DeepEqual(got1, got2) {
		t.Fatalf("write sets differ: %v vs %v (Listing 2: identical)", got1, got2)
	}
	if len(res.MergedKeys) != 1 || res.MergedKeys[0] != "Device1" {
		t.Fatalf("merged keys = %v", res.MergedKeys)
	}
	if res.DocStates["Device1"] == nil {
		t.Fatal("document state not persisted")
	}
}

func TestCrossBlockSeeding(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})

	// Block 1: one reading.
	b1 := blockOf(crdtTx("t1", "dev", `{"r":[{"t":"15"}]}`))
	codes := make([]ledger.ValidationCode, 1)
	res1, err := e.MergeBlock(b1, codes)
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	StageDocStates(batch, res1)
	db.Apply(batch, rwset.Version{BlockNum: 1})

	// Block 2: a second reading must merge AFTER the persisted first.
	tx2 := crdtTx("t2", "dev", `{"r":[{"t":"20"}]}`)
	b2 := blockOf(tx2)
	codes2 := make([]ledger.ValidationCode, 1)
	if _, err := e.MergeBlock(b2, codes2); err != nil {
		t.Fatal(err)
	}
	got := decodeJSON(t, tx2.RWSet.Writes[0].Value)
	want := decodeJSON(t, []byte(`{"r":[{"t":"15"},{"t":"20"}]}`))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-block merge = %v, want %v (no update loss)", got, want)
	}
}

func TestNonCRDTTransactionsUntouched(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	plain := plainTx("p1", "k", "value")
	block := blockOf(plain, crdtTx("c1", "doc", `{"a":["x"]}`))
	codes := make([]ledger.ValidationCode, 2)
	res, err := e.MergeBlock(block, codes)
	if err != nil {
		t.Fatal(err)
	}
	if codes[0] != ledger.CodeNotValidated {
		t.Fatalf("plain tx code = %v, want NotValidated (left for MVCC)", codes[0])
	}
	if codes[1] != ledger.CodeCRDTMerged {
		t.Fatalf("crdt tx code = %v", codes[1])
	}
	if string(plain.RWSet.Writes[0].Value) != "value" {
		t.Fatal("plain write mutated")
	}
	if res.MergedTxCount != 1 {
		t.Fatalf("merged = %d", res.MergedTxCount)
	}
}

func TestPreFailedTransactionsNeverMerge(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	bad := crdtTx("bad", "doc", `{"a":["evil"]}`)
	good := crdtTx("good", "doc", `{"a":["ok"]}`)
	block := blockOf(bad, good)
	codes := []ledger.ValidationCode{ledger.CodeEndorsementFailure, ledger.CodeNotValidated}
	if _, err := e.MergeBlock(block, codes); err != nil {
		t.Fatal(err)
	}
	if codes[0] != ledger.CodeEndorsementFailure {
		t.Fatalf("failed tx code overwritten: %v", codes[0])
	}
	got := decodeJSON(t, good.RWSet.Writes[0].Value)
	if !reflect.DeepEqual(got["a"], []any{"ok"}) {
		t.Fatalf("converged doc includes rejected update: %v", got)
	}
	// The rejected transaction's write set must not be rewritten.
	if string(bad.RWSet.Writes[0].Value) != `{"a":["evil"]}` {
		t.Fatalf("rejected tx write mutated: %s", bad.RWSet.Writes[0].Value)
	}
}

func TestInvalidCRDTValueFailsTx(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	cases := []string{
		`not json`,
		`"scalar"`,
		`[1,2,3]`,
		strings.Repeat(`{"a":`, 3400) + "1" + strings.Repeat("}", 3400), // past jsoncrdt.MaxDepth
	}
	for _, bad := range cases {
		tx := crdtTx("t", "k", bad)
		codes := make([]ledger.ValidationCode, 1)
		if _, err := e.MergeBlock(blockOf(tx), codes); err != nil {
			t.Fatalf("MergeBlock(%.40q) hard error: %v", bad, err)
		}
		if codes[0] != ledger.CodeInvalidCRDT {
			t.Errorf("code for %.40q = %v, want InvalidCRDT", bad, codes[0])
		}
	}
}

func TestMixedWritesInOneTransaction(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	tx := &ledger.Transaction{
		ID: "mixed",
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{
				{Key: "plain", Value: []byte("raw")},
				{Key: "doc", Value: []byte(`{"l":["v"]}`), IsCRDT: true},
			},
		},
	}
	codes := make([]ledger.ValidationCode, 1)
	if _, err := e.MergeBlock(blockOf(tx), codes); err != nil {
		t.Fatal(err)
	}
	if codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("code = %v", codes[0])
	}
	if string(tx.RWSet.Writes[0].Value) != "raw" {
		t.Fatal("non-CRDT write of CRDT tx mutated")
	}
	got := decodeJSON(t, tx.RWSet.Writes[1].Value)
	if !reflect.DeepEqual(got["l"], []any{"v"}) {
		t.Fatalf("CRDT write = %v", got)
	}
}

func TestDeterministicAcrossEngines(t *testing.T) {
	// Two peers (two engines over distinct DBs) must produce
	// byte-identical documents for the same block sequence.
	mkBlock := func() *ledger.Block {
		return blockOf(
			crdtTx("t1", "dev", `{"r":[{"t":"1"}],"id":"dev-a"}`),
			crdtTx("t2", "dev", `{"r":[{"t":"2"}]}`),
			crdtTx("t3", "dev2", `{"x":["y"]}`),
		)
	}
	run := func() (map[string][]byte, [][]byte) {
		db := statedb.New()
		e := NewEngine(db, Options{})
		block := mkBlock()
		codes := make([]ledger.ValidationCode, 3)
		res, err := e.MergeBlock(block, codes)
		if err != nil {
			t.Fatal(err)
		}
		var values [][]byte
		for _, tx := range block.Transactions {
			values = append(values, tx.RWSet.Writes[0].Value)
		}
		return res.DocStates, values
	}
	s1, v1 := run()
	s2, v2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("doc states differ across peers")
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("rewritten write sets differ across peers")
	}
}

// randomHistoryBlock builds block num of a seeded history over a few hot
// keys: CRDT appends and scalar overwrites, invalid deltas (unparseable,
// non-object, nested past the depth bound), plain non-CRDT transactions,
// multi-key transactions and typed G-Counter increments on their own key.
func randomHistoryBlock(rng *rand.Rand, num uint64) *ledger.Block {
	deep := strings.Repeat(`{"a":`, 100) + "1" + strings.Repeat("}", 100)
	var txs []*ledger.Transaction
	for i := 0; i < 5+rng.Intn(25); i++ {
		id := fmt.Sprintf("b%d-t%d", num, i)
		key := fmt.Sprintf("dev%d", rng.Intn(3))
		var writes []rwset.Write
		switch r := rng.Intn(10); {
		case r < 5:
			writes = []rwset.Write{{Key: key, Value: []byte(fmt.Sprintf(`{"r":[{"t":%d}],"last":"%s"}`, rng.Intn(100), id)), IsCRDT: true}}
		case r == 5:
			bad := []string{`not json`, `"scalar"`, `[1,2]`, deep}[rng.Intn(4)]
			writes = []rwset.Write{{Key: key, Value: []byte(bad), IsCRDT: true}}
		case r == 6:
			writes = []rwset.Write{{Key: "plain", Value: []byte(id)}}
		case r == 7:
			writes = []rwset.Write{
				{Key: "plain", Value: []byte(id)},
				{Key: key, Value: []byte(`{"m":{"n":["x"]}}`), IsCRDT: true},
				{Key: "dev9", Value: []byte(fmt.Sprintf(`{"s":[%d]}`, i)), IsCRDT: true},
			}
		default:
			writes = []rwset.Write{{Key: "hits", Value: []byte(fmt.Sprintf(`{"%s":%d}`, id, 1+rng.Intn(5))), IsCRDT: true, CRDTType: "g-counter"}}
		}
		txs = append(txs, &ledger.Transaction{ID: id, RWSet: rwset.ReadWriteSet{Writes: writes}})
	}
	return &ledger.Block{Header: ledger.BlockHeader{Number: num}, Transactions: txs}
}

// TestPaperSecondPassEquivalence: Algorithm 1's literal per-transaction
// second pass and the default once-per-key render must commit the same
// bytes — codes, every rewritten write value, and the persisted document
// and typed states — across a seeded multi-block history.
func TestPaperSecondPassEquivalence(t *testing.T) {
	type outcome struct {
		codes  []ledger.ValidationCode
		values [][]byte
		res    Result
	}
	run := func(opts Options) []outcome {
		rng := rand.New(rand.NewSource(14))
		db := statedb.New()
		e := NewEngine(db, opts)
		var out []outcome
		for num := uint64(1); num <= 12; num++ {
			block := randomHistoryBlock(rng, num)
			codes := make([]ledger.ValidationCode, len(block.Transactions))
			res, err := e.MergeBlock(block, codes)
			if err != nil {
				t.Fatal(err)
			}
			var values [][]byte
			for _, tx := range block.Transactions {
				for _, w := range tx.RWSet.Writes {
					values = append(values, w.Value)
				}
			}
			batch := statedb.NewUpdateBatch()
			StageDocStates(batch, res)
			db.Apply(batch, rwset.Version{BlockNum: num})
			out = append(out, outcome{codes: codes, values: values, res: res})
		}
		return out
	}
	literal := run(Options{PaperSecondPass: true})
	shared := run(Options{})
	count := make(map[ledger.ValidationCode]int)
	typed := 0
	for blk := range literal {
		if !reflect.DeepEqual(literal[blk].codes, shared[blk].codes) {
			t.Errorf("block %d: codes = %v, paper-literal %v", blk+1, shared[blk].codes, literal[blk].codes)
		}
		if !reflect.DeepEqual(literal[blk].values, shared[blk].values) {
			t.Errorf("block %d: rewritten write values differ", blk+1)
		}
		if !reflect.DeepEqual(literal[blk].res, shared[blk].res) {
			t.Errorf("block %d: results differ:\n got %+v\nwant %+v", blk+1, shared[blk].res, literal[blk].res)
		}
		for _, c := range literal[blk].codes {
			count[c]++
		}
		typed += len(literal[blk].res.TypedStates)
	}
	// Sanity: the history exercised both outcomes and the typed route.
	if count[ledger.CodeInvalidCRDT] == 0 || count[ledger.CodeCRDTMerged] == 0 || count[ledger.CodeNotValidated] == 0 {
		t.Fatalf("history degenerate, code mix = %v", count)
	}
	if typed == 0 {
		t.Fatal("history never merged the typed key")
	}
}

func TestLoadDoc(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	res, err := e.MergeBlock(blockOf(crdtTx("t1", "dev", `{"r":["a"]}`)), make([]ledger.ValidationCode, 1))
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	StageDocStates(batch, res)
	db.Apply(batch, rwset.Version{BlockNum: 1})

	doc, err := LoadDoc(db, "dev")
	if err != nil || doc == nil {
		t.Fatalf("LoadDoc = %v, %v", doc, err)
	}
	if got := doc.ToJSON(); !reflect.DeepEqual(got["r"], []any{"a"}) {
		t.Fatalf("loaded doc = %v", got)
	}
	missing, err := LoadDoc(db, "never-written")
	if err != nil || missing != nil {
		t.Fatalf("LoadDoc(missing) = %v, %v", missing, err)
	}
}

func TestCorruptPersistedStateSurfacesError(t *testing.T) {
	db := statedb.New()
	batch := statedb.NewUpdateBatch()
	batch.PutMeta(MetaPrefix+"dev", []byte("corrupt"))
	db.Apply(batch, rwset.Version{BlockNum: 1})
	e := NewEngine(db, Options{})
	_, err := e.MergeBlock(blockOf(crdtTx("t", "dev", `{"a":["x"]}`)), make([]ledger.ValidationCode, 1))
	if err == nil {
		t.Fatal("corrupt persisted document must surface an error")
	}
	if _, err := LoadDoc(db, "dev"); err == nil {
		t.Fatal("LoadDoc over corrupt state must error")
	}
}

// TestNoUpdateLossManyConflictingTxs is the paper's "no update loss"
// requirement at block scale: N transactions all appending to the same key
// in one block; the converged document contains all N readings in order.
func TestNoUpdateLossManyConflictingTxs(t *testing.T) {
	db := statedb.New()
	e := NewEngine(db, Options{})
	const n = 200
	txs := make([]*ledger.Transaction, n)
	for i := range txs {
		v, err := json.Marshal(map[string]any{"r": []any{map[string]any{"t": float64(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = crdtTx("t"+string(rune(i)), "dev", string(v))
		txs[i].ID = "tx-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i%20))
	}
	codes := make([]ledger.ValidationCode, n)
	if _, err := e.MergeBlock(blockOf(txs...), codes); err != nil {
		t.Fatal(err)
	}
	got := decodeJSON(t, txs[n-1].RWSet.Writes[0].Value)
	readings := got["r"].([]any)
	if len(readings) != n {
		t.Fatalf("readings = %d, want %d (no update loss)", len(readings), n)
	}
	for i, r := range readings {
		if r.(map[string]any)["t"] != float64(i) {
			t.Fatalf("readings[%d] = %v (block order violated)", i, r)
		}
	}
}

func BenchmarkMergeBlock(b *testing.B) {
	for _, blockSize := range []int{25, 100, 400} {
		b.Run(benchName(blockSize), func(b *testing.B) {
			db := statedb.New()
			e := NewEngine(db, Options{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				txs := make([]*ledger.Transaction, blockSize)
				for j := range txs {
					txs[j] = crdtTx("t", "dev", `{"r":[{"t":"21"}]}`)
				}
				codes := make([]ledger.ValidationCode, blockSize)
				if _, err := e.MergeBlock(blockOf(txs...), codes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n int) string {
	return "blockSize=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
