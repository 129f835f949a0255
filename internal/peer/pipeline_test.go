package peer

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/core"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
)

// pipelineEnv wires one CA/MSP and a set of committer peers with different
// pipeline configurations, all trusting the same roots so one endorsed
// transaction set commits everywhere.
type pipelineEnv struct {
	ca     *cryptoid.CA
	msp    *cryptoid.MSP
	client *cryptoid.Signer
	// baseline endorses and commits serially; variants replay its blocks.
	baseline *Peer
	variants []*Peer
}

func newPipelineEnv(t *testing.T, variants []CommitterConfig) *pipelineEnv {
	t.Helper()
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	msp := cryptoid.NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	clientSigner, err := ca.Issue("client0")
	if err != nil {
		t.Fatal(err)
	}
	env := &pipelineEnv{ca: ca, msp: msp, client: clientSigner}
	env.baseline = env.newPeer(t, "Org1.baseline", CommitterConfig{}, core.Options{})
	for _, cc := range variants {
		env.addVariant(t, cc, core.Options{})
	}
	return env
}

func (e *pipelineEnv) newPeer(t *testing.T, name string, committer CommitterConfig, engine core.Options) *Peer {
	t.Helper()
	signer, err := e.ca.Issue(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Name: name, MSPID: "Org1", ChannelID: "ch1",
		EnableCRDT: true, Committer: committer, EngineOptions: engine,
	}, signer, e.msp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// addVariant adds one more peer that replays the baseline's blocks.
func (e *pipelineEnv) addVariant(t *testing.T, committer CommitterConfig, engine core.Options) *Peer {
	t.Helper()
	p := e.newPeer(t, fmt.Sprintf("Org1.variant%d", len(e.variants)), committer, engine)
	e.variants = append(e.variants, p)
	return p
}

func (e *pipelineEnv) peers() []*Peer {
	return append([]*Peer{e.baseline}, e.variants...)
}

func (e *pipelineEnv) install(t *testing.T, name string, cc chaincode.Chaincode) {
	t.Helper()
	policy := endorse.MustParse("'Org1.member'")
	for _, p := range e.peers() {
		p.InstallChaincode(name, cc, policy)
	}
}

// endorseTx simulates on the baseline peer and assembles the envelope.
func (e *pipelineEnv) endorseTx(t *testing.T, txID, ccName string, args ...string) *ledger.Transaction {
	t.Helper()
	creator, err := e.client.Identity.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rawArgs := make([][]byte, len(args))
	for i, a := range args {
		rawArgs[i] = []byte(a)
	}
	resp, err := e.baseline.Endorse(Proposal{
		TxID: txID, ChannelID: "ch1", Chaincode: ccName, Args: rawArgs, Creator: creator,
	})
	if err != nil {
		t.Fatalf("endorse %s: %v", txID, err)
	}
	return &ledger.Transaction{
		ID:           txID,
		ChannelID:    "ch1",
		Chaincode:    ccName,
		Creator:      creator,
		Args:         rawArgs,
		RWSet:        resp.RWSet,
		Endorsements: []ledger.Endorsement{{Endorser: resp.Endorser, Signature: resp.Signature}},
	}
}

// multiKeyCRDTChaincode appends a reading to two device documents per call,
// exercising multi-key transactions across key-groups.
func multiKeyCRDTChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		devA, devB, reading := params[0], params[1], params[2]
		delta := []byte(`{"readings":[{"t":"` + reading + `"}]}`)
		if err := stub.PutCRDT(devA, delta); err != nil {
			return err
		}
		return stub.PutCRDT(devB, delta)
	})
}

// plainChaincode writes an ordinary (MVCC-validated) key.
func plainChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		if _, err := stub.GetState(params[0]); err != nil {
			return err
		}
		return stub.PutState(params[0], []byte(params[1]))
	})
}

// badCRDTChaincode endorses an unparseable CRDT delta (fails at merge time
// with CodeInvalidCRDT, after a valid write to another key).
func badCRDTChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		if err := stub.PutCRDT(params[0], []byte(`{"ok":["x"]}`)); err != nil {
			return err
		}
		return stub.PutCRDT(params[1], []byte(`not json`))
	})
}

// TestCommitPipelineDeterminism is the refactor's core guarantee: identical
// block sequences commit to byte-identical world state, versions and
// validation codes at every Workers setting.
func TestCommitPipelineDeterminism(t *testing.T) {
	env := newPipelineEnv(t, []CommitterConfig{
		{Workers: 1},
		{Workers: 4},
		{Workers: 8},
	})
	env.install(t, "iot", multiKeyCRDTChaincode())
	env.install(t, "plain", plainChaincode())
	env.install(t, "bad", badCRDTChaincode())

	// Block 1: 20 conflicting CRDT txs over 4 device keys, plain txs (one
	// MVCC winner per key), an invalid CRDT delta, a tampered signature
	// and an in-block duplicate ID.
	var b1txs []*ledger.Transaction
	for i := 0; i < 20; i++ {
		devA := fmt.Sprintf("dev%d", i%4)
		devB := fmt.Sprintf("dev%d", (i+1)%4)
		b1txs = append(b1txs, env.endorseTx(t, fmt.Sprintf("crdt-%d", i), "iot", "append", devA, devB, fmt.Sprintf("%d", i)))
	}
	b1txs = append(b1txs,
		env.endorseTx(t, "plain-1", "plain", "put", "acct", "100"),
		env.endorseTx(t, "plain-2", "plain", "put", "acct", "200"), // same snapshot: MVCC conflict
		env.endorseTx(t, "bad-1", "bad", "poison", "ok-key", "dev0"),
	)
	forged := env.endorseTx(t, "forged", "plain", "put", "other", "1")
	forged.Endorsements[0].Signature[0] ^= 0xff
	b1txs = append(b1txs, forged, b1txs[0]) // duplicate ID in-block

	commitAll := func(txs []*ledger.Transaction) map[*Peer]CommitResult {
		t.Helper()
		block := makeBlock(t, env.baseline, txs)
		out := make(map[*Peer]CommitResult)
		for _, p := range env.peers() {
			res, err := p.CommitBlock(block)
			if err != nil {
				t.Fatalf("peer %s: %v", p.Name(), err)
			}
			out[p] = res
		}
		return out
	}
	res1 := commitAll(b1txs)

	// Block 2: more conflicting appends on the same keys (cross-block
	// seeding) plus a cross-block duplicate.
	var b2txs []*ledger.Transaction
	for i := 0; i < 10; i++ {
		devA := fmt.Sprintf("dev%d", i%4)
		devB := fmt.Sprintf("dev%d", (i+2)%4)
		b2txs = append(b2txs, env.endorseTx(t, fmt.Sprintf("crdt2-%d", i), "iot", "append", devA, devB, fmt.Sprintf("b2-%d", i)))
	}
	b2txs = append(b2txs, env.endorseTx(t, "crdt-0", "iot", "append", "dev0", "dev1", "dup"))
	res2 := commitAll(b2txs)

	for _, p := range env.variants {
		for blockIdx, res := range []map[*Peer]CommitResult{res1, res2} {
			want, got := res[env.baseline], res[p]
			if !reflect.DeepEqual(want.Codes, got.Codes) {
				t.Errorf("block %d: %s codes = %v, baseline %v", blockIdx+1, p.Name(), got.Codes, want.Codes)
			}
			if !reflect.DeepEqual(want.MergedKeys, got.MergedKeys) {
				t.Errorf("block %d: %s merged keys = %v, baseline %v", blockIdx+1, p.Name(), got.MergedKeys, want.MergedKeys)
			}
			if want.CommittedTx != got.CommittedTx {
				t.Errorf("block %d: %s committed %d, baseline %d", blockIdx+1, p.Name(), got.CommittedTx, want.CommittedTx)
			}
		}
		assertSameWorldState(t, env.baseline, p)
	}

	// The expected mix actually occurred (the workload isn't degenerate).
	codes := res1[env.baseline].Codes
	count := make(map[ledger.ValidationCode]int)
	for _, c := range codes {
		count[c]++
	}
	if count[ledger.CodeCRDTMerged] == 0 || count[ledger.CodeValid] == 0 ||
		count[ledger.CodeMVCCConflict] == 0 || count[ledger.CodeInvalidCRDT] == 0 ||
		count[ledger.CodeBadSignature] == 0 || count[ledger.CodeDuplicate] == 0 {
		t.Fatalf("workload degenerate, code mix = %v", count)
	}
}

// assertSameWorldState compares full world state, versions and persisted
// CRDT documents between two peers.
func assertSameWorldState(t *testing.T, a, b *Peer) {
	t.Helper()
	av, bv := a.DB().GetRange("", ""), b.DB().GetRange("", "")
	if len(av) != len(bv) {
		t.Fatalf("%s has %d keys, %s has %d", a.Name(), len(av), b.Name(), len(bv))
	}
	for i := range av {
		if av[i].Key != bv[i].Key || !bytes.Equal(av[i].Value, bv[i].Value) || av[i].Version != bv[i].Version {
			t.Errorf("state diverged at %q: %s=%q@%v %s=%q@%v",
				av[i].Key, a.Name(), av[i].Value, av[i].Version, b.Name(), bv[i].Value, bv[i].Version)
		}
		metaA := a.DB().GetMeta(core.MetaPrefix + av[i].Key)
		metaB := b.DB().GetMeta(core.MetaPrefix + bv[i].Key)
		if !bytes.Equal(metaA, metaB) {
			t.Errorf("persisted document diverged at %q", av[i].Key)
		}
	}
	if a.DB().Height() != b.DB().Height() {
		t.Errorf("heights diverged: %v vs %v", a.DB().Height(), b.DB().Height())
	}
}

// TestCommitTimingsRecorded checks every pipeline stage reports latencies.
func TestCommitTimingsRecorded(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	tx := env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")
	if _, err := env.peer.CommitBlock(makeBlock(t, env.peer, []*ledger.Transaction{tx})); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, s := range env.peer.CommitTimings() {
		got[s.Stage] = s.Count
	}
	for _, stage := range []string{StageDecode, StageDedup, StageEndorse, StageMerge, StageMVCC, StageApply, StageAppend} {
		if got[stage] != 1 {
			t.Errorf("stage %q observed %d times, want 1 (all: %v)", stage, got[stage], got)
		}
	}
}

// TestParallelCommitMatchesKnownResults re-runs the seed's serial commit
// scenarios through a fully parallel pipeline.
func TestParallelCommitMatchesKnownResults(t *testing.T) {
	env := newPipelineEnv(t, []CommitterConfig{{Workers: 8}})
	env.install(t, "plain", plainChaincode())
	p := env.variants[0]
	txs := []*ledger.Transaction{
		env.endorseTx(t, "t1", "plain", "put", "k", "1"),
		env.endorseTx(t, "t2", "plain", "put", "k", "2"),
		env.endorseTx(t, "t3", "plain", "put", "k", "3"),
	}
	res, err := p.CommitBlock(makeBlock(t, env.baseline, txs))
	if err != nil {
		t.Fatal(err)
	}
	want := []ledger.ValidationCode{ledger.CodeValid, ledger.CodeMVCCConflict, ledger.CodeMVCCConflict}
	if !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("codes = %v, want %v", res.Codes, want)
	}
}
