package peer

import (
	"errors"
	"reflect"
	"testing"

	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
)

// forgeEndorserCert returns tx with its endorser's certificate forged: the
// identity (MSPID, name, public key) is copied and only CertSig altered,
// so the endorsement signature itself still verifies under the key.
func forgeEndorserCert(t *testing.T, tx *ledger.Transaction) *ledger.Transaction {
	t.Helper()
	id, err := cryptoid.UnmarshalIdentity(tx.Endorsements[0].Endorser)
	if err != nil {
		t.Fatal(err)
	}
	id.CertSig = append([]byte(nil), id.CertSig...)
	id.CertSig[0] ^= 0xff
	raw, err := id.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	forged := *tx
	forged.Endorsements = []ledger.Endorsement{{Endorser: raw, Signature: tx.Endorsements[0].Signature}}
	return &forged
}

// TestCertMemoNeverChangesCodes commits an honest endorsement and then a
// forged-certificate endorsement from the "same" endorser on a peer whose
// MSP has memoized the honest certificate, and the same blocks on a peer
// built on a fresh MSP. Both assign VALID/CRDT_MERGED then BAD_SIGNATURE
// and reach identical world state and chains.
func TestCertMemoNeverChangesCodes(t *testing.T) {
	for _, enableCRDT := range []bool{true, false} {
		env := newEnv(t, enableCRDT)
		env.install(t, "iot", iotChaincode())
		cold := cryptoid.NewMSP()
		cold.AddOrg("Org1", env.ca.PublicKey())
		signer, err := env.ca.Issue("Org1.peer1")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Config{Name: "Org1.peer1", MSPID: "Org1", Channels: []string{"ch1"}, EnableCRDT: enableCRDT}, signer, cold)
		if err != nil {
			t.Fatal(err)
		}
		fresh.InstallChaincode("iot", iotChaincode(), endorse.MustParse("'Org1.member'"))

		good := ledger.CodeValid
		if enableCRDT {
			good = ledger.CodeCRDTMerged
		}
		blocks := [][]*ledger.Transaction{
			{env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")},
			{
				env.endorseTx(t, "tx2", "iot", "record", "dev2", "20"),
				forgeEndorserCert(t, env.endorseTx(t, "tx3", "iot", "record", "dev3", "25")),
			},
		}
		want := [][]ledger.ValidationCode{{good}, {good, ledger.CodeBadSignature}}
		for i, txs := range blocks {
			block := makeBlock(t, env.peer, txs)
			for _, p := range []*Peer{env.peer, fresh} {
				res, err := p.CommitBlock(block)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Codes, want[i]) {
					t.Fatalf("crdt=%v %s block %d: codes = %v, want %v", enableCRDT, p.Name(), i+1, res.Codes, want[i])
				}
			}
		}
		if _, ok := env.peer.DB().Get("dev3"); ok {
			t.Fatalf("crdt=%v: the forged-certificate tx reached the state", enableCRDT)
		}
		assertSameWorldState(t, env.peer, fresh)
		assertSameChain(t, env.peer, fresh)
	}
}

// TestCertMemoRootRotation: after AddOrg replaces Org1's root, an endorser
// whose certificate the peer accepted (and memoized) under the old root
// gets BAD_SIGNATURE on its next transaction, and its clients can no
// longer get proposals endorsed.
func TestCertMemoRootRotation(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	first := env.endorseTx(t, "tx1", "iot", "record", "dev1", "15")
	next := env.endorseTx(t, "tx2", "iot", "record", "dev1", "20")
	res, err := env.peer.CommitBlock(makeBlock(t, env.peer, []*ledger.Transaction{first}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("before rotation: code = %v, want CRDT_MERGED", res.Codes[0])
	}

	rotated, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	env.msp.AddOrg("Org1", rotated.PublicKey())
	res, err = env.peer.CommitBlock(makeBlock(t, env.peer, []*ledger.Transaction{next}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeBadSignature {
		t.Fatalf("after rotation: code = %v, want BAD_SIGNATURE", res.Codes[0])
	}
	creator, err := env.client.Identity.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, err = env.peer.Endorse(Proposal{TxID: "tx3", ChannelID: "ch1", Chaincode: "iot",
		Args: [][]byte{[]byte("record"), []byte("dev1"), []byte("25")}, Creator: creator})
	if !errors.Is(err, ErrBadCreator) {
		t.Fatalf("endorse after rotation: err = %v, want ErrBadCreator", err)
	}
}
