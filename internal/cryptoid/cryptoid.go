// Package cryptoid is the membership service provider (MSP) substrate: a
// minimal X.509-free certificate authority per organization built on
// ed25519. Fabric's trust model — every endorsement carries a signature
// verifiable against an organization CA — is preserved; the ASN.1/X.509
// envelope is replaced by a deterministic JSON certificate.
//
// An MSP keeps a bounded memo of the certificates it has verified, so a
// commit checks each endorser's certificate chain once, not once per
// endorsement. The memo holds no world state, never holds a failure, and
// AddOrg clears it.
package cryptoid

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by identity operations.
var (
	ErrUnknownMSP   = errors.New("cryptoid: unknown MSP")
	ErrBadCert      = errors.New("cryptoid: certificate verification failed")
	ErrBadSignature = errors.New("cryptoid: signature verification failed")
)

// Identity is a public identity: a named member of an organization whose
// public key is certified by the organization's CA.
type Identity struct {
	MSPID     string            `json:"mspID"`
	Name      string            `json:"name"`
	PublicKey ed25519.PublicKey `json:"publicKey"`
	// CertSig is the CA's signature over the (MSPID, Name, PublicKey)
	// tuple.
	CertSig []byte `json:"certSig"`
}

// certPayload returns the byte string the CA signs.
func (id Identity) certPayload() []byte { return id.appendCertPayload(nil) }

// appendCertPayload appends certPayload to dst.
func (id Identity) appendCertPayload(dst []byte) []byte {
	dst = append(dst, "cert\x00"...)
	dst = append(append(dst, id.MSPID...), 0)
	dst = append(append(dst, id.Name...), 0)
	return append(dst, id.PublicKey...)
}

// Marshal serializes the identity.
func (id Identity) Marshal() ([]byte, error) { return json.Marshal(id) }

// UnmarshalIdentity parses Marshal output.
func UnmarshalIdentity(data []byte) (Identity, error) {
	var id Identity
	if err := json.Unmarshal(data, &id); err != nil {
		return Identity{}, fmt.Errorf("cryptoid: decoding identity: %w", err)
	}
	return id, nil
}

// Signer is a private identity capable of signing.
type Signer struct {
	Identity
	priv ed25519.PrivateKey
}

// Sign signs msg with the identity's private key.
func (s *Signer) Sign(msg []byte) []byte {
	return ed25519.Sign(s.priv, msg)
}

// Verify checks sig over msg against the identity's public key.
func Verify(id Identity, msg, sig []byte) error {
	if len(id.PublicKey) != ed25519.PublicKeySize || !ed25519.Verify(id.PublicKey, msg, sig) {
		return fmt.Errorf("%w: identity %s/%s", ErrBadSignature, id.MSPID, id.Name)
	}
	return nil
}

// CA is an organization's certificate authority.
type CA struct {
	mspID string
	pub   ed25519.PublicKey
	priv  ed25519.PrivateKey
}

// NewCA creates a CA with a fresh keypair for the given MSP ID.
func NewCA(mspID string) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptoid: generating CA key: %w", err)
	}
	return &CA{mspID: mspID, pub: pub, priv: priv}, nil
}

// NewDeterministicCA derives the CA keypair from sha256(seed, mspID)
// instead of fresh randomness, so SEPARATE OS PROCESSES sharing a seed
// string derive identical organization roots — the multi-process demo's
// substitute for distributing real cert files. Member keys issued by the
// CA stay random; only the root is deterministic. Demo and test topologies
// only: a production deployment distributes roots, never seeds.
func NewDeterministicCA(mspID, seed string) *CA {
	sum := sha256.Sum256([]byte("fabriccrdt/deterministic-ca\x00" + mspID + "\x00" + seed))
	priv := ed25519.NewKeyFromSeed(sum[:])
	return &CA{mspID: mspID, pub: priv.Public().(ed25519.PublicKey), priv: priv}
}

// MSPID returns the organization identifier the CA certifies for.
func (ca *CA) MSPID() string { return ca.mspID }

// PublicKey returns the CA root public key.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.pub }

// Issue creates and certifies a new member identity.
func (ca *CA) Issue(name string) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptoid: generating member key: %w", err)
	}
	id := Identity{MSPID: ca.mspID, Name: name, PublicKey: pub}
	id.CertSig = ed25519.Sign(ca.priv, id.certPayload())
	return &Signer{Identity: id, priv: priv}, nil
}

// memoCap bounds an MSP's verified-certificate memo. A network has a
// handful of member certificates, so a full memo means a flood of distinct
// ones: it is reset rather than evicted entry by entry.
const memoCap = 1024

// MSP is the verifier side: the set of trusted organization CA roots.
// The zero value is ready to use. MSP is safe for concurrent use.
type MSP struct {
	mu    sync.RWMutex
	roots map[string]ed25519.PublicKey
	// verified memoizes successful certificate checks, keyed by root ||
	// CertSig || certPayload. A verdict is a pure function of those three,
	// so a hit returns what ed25519.Verify would. Failures are never
	// stored, and AddOrg clears the memo.
	verified map[string]struct{}
}

// NewMSP returns an empty MSP.
func NewMSP() *MSP {
	return &MSP{roots: make(map[string]ed25519.PublicKey)}
}

// AddOrg trusts an organization's CA root.
func (m *MSP) AddOrg(mspID string, root ed25519.PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.roots == nil {
		m.roots = make(map[string]ed25519.PublicKey)
	}
	m.roots[mspID] = root
	m.verified = nil
}

// Orgs returns the trusted MSP IDs.
func (m *MSP) Orgs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.roots))
	for id := range m.roots {
		out = append(out, id)
	}
	return out
}

// VerifyIdentity checks that the identity's certificate chains to a trusted
// organization root. A certificate already verified against the current
// root is answered from the memo.
func (m *MSP) VerifyIdentity(id Identity) error {
	m.mu.RLock()
	root, ok := m.roots[id.MSPID]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownMSP, id.MSPID)
	}
	// ed25519.Verify refuses any other length too; refusing it first makes
	// the fixed-width root || CertSig prefix split the memo key one way only.
	if len(id.CertSig) != ed25519.SignatureSize {
		return fmt.Errorf("%w: identity %s/%s", ErrBadCert, id.MSPID, id.Name)
	}
	key := memoKey(root, id)
	m.mu.RLock()
	_, hit := m.verified[string(key)]
	m.mu.RUnlock()
	if hit {
		return nil
	}
	if !ed25519.Verify(root, key[len(root)+ed25519.SignatureSize:], id.CertSig) {
		return fmt.Errorf("%w: identity %s/%s", ErrBadCert, id.MSPID, id.Name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// An AddOrg that ran during the check replaced the root the verdict
	// was reached against: keep nothing from it.
	if cur, ok := m.roots[id.MSPID]; ok && bytes.Equal(cur, root) {
		if m.verified == nil || len(m.verified) >= memoCap {
			m.verified = make(map[string]struct{})
		}
		m.verified[string(key)] = struct{}{}
	}
	return nil
}

// memoKey is root || CertSig || certPayload: the memo key of id verified
// against root.
func memoKey(root ed25519.PublicKey, id Identity) []byte {
	key := make([]byte, 0, len(root)+len(id.CertSig)+len("cert\x00\x00\x00")+len(id.MSPID)+len(id.Name)+len(id.PublicKey))
	return id.appendCertPayload(append(append(key, root...), id.CertSig...))
}

// VerifySignature checks both the certificate chain and a signature by the
// identity over msg.
func (m *MSP) VerifySignature(id Identity, msg, sig []byte) error {
	if err := m.VerifyIdentity(id); err != nil {
		return err
	}
	return Verify(id, msg, sig)
}
