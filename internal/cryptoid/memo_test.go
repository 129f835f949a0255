package cryptoid

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// issue is ca.Issue for tests.
func issue(t testing.TB, ca *CA, name string) *Signer {
	t.Helper()
	s, err := ca.Issue(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// memoLen reads the number of memoized certificates.
func memoLen(m *MSP) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.verified)
}

// TestMemoRejectsForgedCertAfterHonest: once the honest certificate of
// Org1/peer0 is memoized, certificates carrying the same MSPID, name and
// key under another CertSig are still refused, every time.
func TestMemoRejectsForgedCertAfterHonest(t *testing.T) {
	ca := newTestCA(t, "Org1")
	foreign := newTestCA(t, "Org1") // same MSP ID, untrusted root
	honest := issue(t, ca, "peer0").Identity
	msp := NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	for i := 0; i < 2; i++ {
		if err := msp.VerifyIdentity(honest); err != nil {
			t.Fatalf("honest cert, pass %d: %v", i, err)
		}
	}
	if memoLen(msp) != 1 {
		t.Fatalf("memo holds %d entries after one honest cert, want 1", memoLen(msp))
	}

	altered := honest
	altered.CertSig = append([]byte(nil), honest.CertSig...)
	altered.CertSig[0] ^= 0xff
	foreignSigned := honest
	foreignSigned.CertSig = ed25519.Sign(foreign.priv, honest.certPayload())
	short := honest
	short.CertSig = honest.CertSig[:ed25519.SignatureSize-1]
	for name, forged := range map[string]Identity{
		"altered CertSig":    altered,
		"foreign CA":         foreignSigned,
		"truncated CertSig":  short,
		"renamed identity":   {MSPID: "Org1", Name: "peer1", PublicKey: honest.PublicKey, CertSig: honest.CertSig},
		"substituted pubkey": {MSPID: "Org1", Name: "peer0", PublicKey: issue(t, ca, "x").PublicKey, CertSig: honest.CertSig},
	} {
		for i := 0; i < 2; i++ {
			if err := msp.VerifyIdentity(forged); !errors.Is(err, ErrBadCert) {
				t.Fatalf("%s, pass %d: err = %v, want ErrBadCert", name, i, err)
			}
		}
	}
	if memoLen(msp) != 1 {
		t.Fatalf("memo holds %d entries after refusals, want 1 (failures are never stored)", memoLen(msp))
	}
	if err := msp.VerifyIdentity(honest); err != nil {
		t.Fatalf("honest cert after refusals: %v", err)
	}
}

// TestMemoClearedByAddOrg: replacing Org1's root refuses an identity
// memoized under the old root, and the new root's identities verify.
func TestMemoClearedByAddOrg(t *testing.T) {
	oldCA := newTestCA(t, "Org1")
	newCA := newTestCA(t, "Org1")
	before := issue(t, oldCA, "peer0").Identity
	after := issue(t, newCA, "peer0").Identity
	msp := NewMSP()
	msp.AddOrg("Org1", oldCA.PublicKey())
	if err := msp.VerifyIdentity(before); err != nil {
		t.Fatal(err)
	}
	msp.AddOrg("Org1", newCA.PublicKey())
	if memoLen(msp) != 0 {
		t.Fatalf("memo holds %d entries after AddOrg, want 0", memoLen(msp))
	}
	if err := msp.VerifyIdentity(before); !errors.Is(err, ErrBadCert) {
		t.Fatalf("identity of the replaced root: err = %v, want ErrBadCert", err)
	}
	if err := msp.VerifyIdentity(after); err != nil {
		t.Fatalf("identity of the new root: %v", err)
	}
	if err := msp.VerifyIdentity(before); !errors.Is(err, ErrBadCert) {
		t.Fatalf("identity of the replaced root, second pass: err = %v, want ErrBadCert", err)
	}
}

// TestMemoUnknownMSP: an unknown MSP is refused before and after another
// organization's certificate is memoized.
func TestMemoUnknownMSP(t *testing.T) {
	ca := newTestCA(t, "Org1")
	stranger := issue(t, newTestCA(t, "OrgX"), "peer0").Identity
	msp := NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	if err := msp.VerifyIdentity(stranger); !errors.Is(err, ErrUnknownMSP) {
		t.Fatalf("before: err = %v, want ErrUnknownMSP", err)
	}
	honest := issue(t, ca, "peer0").Identity
	if err := msp.VerifyIdentity(honest); err != nil {
		t.Fatal(err)
	}
	if err := msp.VerifyIdentity(stranger); !errors.Is(err, ErrUnknownMSP) {
		t.Fatalf("after: err = %v, want ErrUnknownMSP", err)
	}
}

// TestMemoBeyondCap: verifying more certificates than the memo holds
// keeps every verdict right and the memo within its cap.
func TestMemoBeyondCap(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	ids := make([]Identity, memoCap+memoCap/4)
	for i := range ids {
		ids[i] = issue(t, ca, fmt.Sprintf("member%d", i)).Identity
	}
	for pass := 0; pass < 2; pass++ {
		for i, id := range ids {
			if err := msp.VerifyIdentity(id); err != nil {
				t.Fatalf("pass %d, member%d: %v", pass, i, err)
			}
			forged := id
			forged.Name += "-forged"
			if err := msp.VerifyIdentity(forged); !errors.Is(err, ErrBadCert) {
				t.Fatalf("pass %d, forged member%d: err = %v, want ErrBadCert", pass, i, err)
			}
			if n := memoLen(msp); n > memoCap {
				t.Fatalf("memo holds %d entries, cap is %d", n, memoCap)
			}
		}
	}
}

// TestZeroValueMSPMemo: the zero MSP trusts nothing, and memoizes once
// AddOrg has given it a root.
func TestZeroValueMSPMemo(t *testing.T) {
	ca := newTestCA(t, "Org1")
	id := issue(t, ca, "peer0").Identity
	var msp MSP
	if err := msp.VerifyIdentity(id); !errors.Is(err, ErrUnknownMSP) {
		t.Fatalf("err = %v, want ErrUnknownMSP", err)
	}
	msp.AddOrg("Org1", ca.PublicKey())
	for i := 0; i < 2; i++ {
		if err := msp.VerifyIdentity(id); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	if memoLen(&msp) != 1 {
		t.Fatalf("memo holds %d entries, want 1", memoLen(&msp))
	}
}

// TestMemoConcurrentAddOrg runs VerifyIdentity from several goroutines
// while the Org1 root flips between two CAs (run it under -race). A
// certificate no root signed is refused throughout; once the flipping
// stops, the verdicts match the final root exactly.
func TestMemoConcurrentAddOrg(t *testing.T) {
	caA := newTestCA(t, "Org1")
	caB := newTestCA(t, "Org1")
	fromA := issue(t, caA, "peer0").Identity
	fromB := issue(t, caB, "peer0").Identity
	forged := fromA
	forged.CertSig = append([]byte(nil), fromA.CertSig...)
	forged.CertSig[5] ^= 0x01
	msp := NewMSP()
	msp.AddOrg("Org1", caA.PublicKey())

	stop := make(chan struct{})
	var rounds atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range []Identity{fromA, fromB} {
					if err := msp.VerifyIdentity(id); err != nil && !errors.Is(err, ErrBadCert) {
						t.Errorf("honest cert: unexpected error %v", err)
						return
					}
				}
				if err := msp.VerifyIdentity(forged); !errors.Is(err, ErrBadCert) {
					t.Errorf("forged cert: err = %v, want ErrBadCert", err)
					return
				}
				rounds.Add(1)
			}
		}()
	}
	// Flip until the workers have verified under many roots; a worker
	// that failed stops counting, so also stop once one has reported.
	for rounds.Load() < 400 && !t.Failed() {
		msp.AddOrg("Org1", caB.PublicKey())
		msp.AddOrg("Org1", caA.PublicKey())
	}
	close(stop)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if err := msp.VerifyIdentity(fromA); err != nil {
			t.Fatalf("final root A, its own cert: %v", err)
		}
		if err := msp.VerifyIdentity(fromB); !errors.Is(err, ErrBadCert) {
			t.Fatalf("final root A, root B's cert: err = %v, want ErrBadCert", err)
		}
	}
}
