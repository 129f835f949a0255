package cryptoid

import (
	"testing"
)

func newTestCA(t *testing.T, mspID string) *CA {
	t.Helper()
	ca, err := NewCA(mspID)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestIssueAndVerify(t *testing.T) {
	ca := newTestCA(t, "Org1")
	signer, err := ca.Issue("peer0")
	if err != nil {
		t.Fatal(err)
	}
	msp := NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	if err := msp.VerifyIdentity(signer.Identity); err != nil {
		t.Fatalf("VerifyIdentity: %v", err)
	}
	msg := []byte("endorse this")
	sig := signer.Sign(msg)
	if err := msp.VerifySignature(signer.Identity, msg, sig); err != nil {
		t.Fatalf("VerifySignature: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	ca := newTestCA(t, "Org1")
	signer, err := ca.Issue("peer0")
	if err != nil {
		t.Fatal(err)
	}
	sig := signer.Sign([]byte("original"))
	if err := Verify(signer.Identity, []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message must fail verification")
	}
}

func TestVerifyRejectsForeignCA(t *testing.T) {
	ca1 := newTestCA(t, "Org1")
	ca2 := newTestCA(t, "Org1") // same MSP ID, different root
	signer, err := ca1.Issue("peer0")
	if err != nil {
		t.Fatal(err)
	}
	msp := NewMSP()
	msp.AddOrg("Org1", ca2.PublicKey())
	if err := msp.VerifyIdentity(signer.Identity); err == nil {
		t.Fatal("identity from untrusted CA must fail")
	}
}

func TestVerifyRejectsUnknownMSP(t *testing.T) {
	ca := newTestCA(t, "OrgX")
	signer, err := ca.Issue("peer0")
	if err != nil {
		t.Fatal(err)
	}
	msp := NewMSP()
	if err := msp.VerifyIdentity(signer.Identity); err == nil {
		t.Fatal("unknown MSP must fail")
	}
}

func TestVerifyRejectsForgedCert(t *testing.T) {
	ca := newTestCA(t, "Org1")
	signer, err := ca.Issue("peer0")
	if err != nil {
		t.Fatal(err)
	}
	msp := NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	forged := signer.Identity
	forged.Name = "peer1" // cert signed for peer0
	if err := msp.VerifyIdentity(forged); err == nil {
		t.Fatal("renamed identity must fail cert check")
	}
}

func TestIdentityMarshalRoundTrip(t *testing.T) {
	ca := newTestCA(t, "Org1")
	signer, err := ca.Issue("client0")
	if err != nil {
		t.Fatal(err)
	}
	data, err := signer.Identity.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalIdentity(data)
	if err != nil {
		t.Fatal(err)
	}
	msp := NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	if err := msp.VerifyIdentity(back); err != nil {
		t.Fatalf("round-tripped identity failed verification: %v", err)
	}
	if back.Name != "client0" || back.MSPID != "Org1" {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestUnmarshalIdentityError(t *testing.T) {
	if _, err := UnmarshalIdentity([]byte("{bad")); err == nil {
		t.Fatal("want error")
	}
}

func TestVerifyBadKeyLength(t *testing.T) {
	id := Identity{MSPID: "Org1", Name: "x", PublicKey: []byte("short")}
	if err := Verify(id, []byte("m"), []byte("sig")); err == nil {
		t.Fatal("short key must fail")
	}
}

func TestMSPOrgs(t *testing.T) {
	msp := NewMSP()
	ca1 := newTestCA(t, "Org1")
	ca2 := newTestCA(t, "Org2")
	msp.AddOrg("Org1", ca1.PublicKey())
	msp.AddOrg("Org2", ca2.PublicKey())
	if got := msp.Orgs(); len(got) != 2 {
		t.Fatalf("Orgs = %v", got)
	}
}

// BenchmarkSignVerify signs and verifies one endorsement. "cold" resets the
// verified-certificate memo every iteration (AddOrg clears it), so it prices
// the full certificate check; "warm" answers the certificate from the memo,
// as a peer does for every endorsement after an endorser's first.
func BenchmarkSignVerify(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	signer, err := ca.Issue("peer0")
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("payload-to-endorse")
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			msp := NewMSP()
			msp.AddOrg("Org1", ca.PublicKey())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					msp.AddOrg("Org1", ca.PublicKey())
				}
				sig := signer.Sign(msg)
				if err := msp.VerifySignature(signer.Identity, msg, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
