package peer

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
)

// newPeerSharing issues a new peer under the env's CA/MSP, so blocks
// endorsed in this env re-validate on it — what SyncFrom requires.
func (e *testEnv) newPeerSharing(t *testing.T, name string, committer CommitterConfig) *Peer {
	t.Helper()
	signer, err := e.ca.Issue(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Name: name, MSPID: "Org1", Channels: []string{"ch1"},
		EnableCRDT: true, Committer: committer,
	}, signer, e.msp)
	if err != nil {
		t.Fatal(err)
	}
	p.InstallChaincode("iot", iotChaincode(), endorse.MustParse("'Org1.member'"))
	return p
}

// TestRestartedPeerServesSyncFrom is the acceptance test for the durable
// block store's history-serving half: kill + restart an LSM-backed peer,
// then have a FRESH peer catch up from it starting at block 0 — the
// pre-restart bodies come off the restarted peer's disk, and the fresh
// peer re-validates everything, ending byte-identical.
func TestRestartedPeerServesSyncFrom(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir}
	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	const n = 3
	blocks := commitReadingBlocks(t, env, n, 1)
	before := snapshotState(env.peer, "crdt/dev1")
	if err := env.peer.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new peer over the same data directory, under the same
	// CA/MSP so its history stays verifiable by others.
	restarted := env.newPeerSharing(t, "Org1.peer0", committer)
	defer restarted.Close()

	// The restarted peer's chain is checkpointed but backed by the block
	// store: the full pre-restart history, genesis included, is servable.
	if got := restarted.Chain().FirstNumber(); got != 0 {
		t.Fatalf("restarted FirstNumber = %d, want 0 (block-store-backed chain)", got)
	}
	if g := restarted.Genesis(); g == nil || g.Header.Number != 0 {
		t.Fatal("restarted peer cannot serve its genesis block")
	}
	for _, want := range blocks {
		got, err := restarted.Chain().Get(want.Header.Number)
		if err != nil {
			t.Fatalf("restarted peer cannot serve block %d: %v", want.Header.Number, err)
		}
		if !bytes.Equal(got.HeaderHash(), want.HeaderHash()) {
			t.Fatalf("block %d served with a different header", want.Header.Number)
		}
		if len(got.Metadata.ValidationCodes) != len(want.Transactions) {
			t.Fatalf("block %d served without its validation codes", want.Header.Number)
		}
	}

	// A fresh (in-memory) peer syncs the whole chain from the restarted
	// one, re-validating every block, and converges to the same state.
	fresh := env.newPeerSharing(t, "Org1.peer1", CommitterConfig{})
	defer fresh.Close()
	if err := fresh.SyncFrom(restarted); err != nil {
		t.Fatalf("SyncFrom(restarted): %v", err)
	}
	if got, want := fresh.Chain().Height(), restarted.Chain().Height(); got != want {
		t.Fatalf("synced chain height = %d, want %d", got, want)
	}
	if err := fresh.Chain().Verify(); err != nil {
		t.Fatalf("synced chain verify: %v", err)
	}
	after := snapshotState(fresh, "crdt/dev1")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("synced state diverged from the pre-restart source:\nbefore %v\nafter  %v", before, after)
	}
}

// mixedChaincode writes one good CRDT delta to dev1 and one unparseable
// delta to dev2: the transaction fails with INVALID_CRDT, but its intact
// dev1 delta still extends that key's document (DESIGN.md §5) — the
// recovery paths must reproduce exactly that.
func mixedChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		good := []byte(`{"tempReadings":[{"temperature":"` + params[0] + `"}]}`)
		if err := stub.PutCRDT("dev1", good); err != nil {
			return err
		}
		return stub.PutCRDT("dev2", []byte(`}{ not a delta`))
	})
}

// commitMixedHistory commits one INVALID_CRDT block followed by clean
// reading blocks, returning the expected code of the first transaction.
func commitMixedHistory(t *testing.T, env *testEnv) {
	t.Helper()
	env.install(t, "mixed", mixedChaincode())
	tx := env.endorseTx(t, "tx-mixed", "mixed", "record", "7")
	res, err := env.peer.CommitBlock(makeBlock(t, env.peer, []*ledger.Transaction{tx}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeInvalidCRDT {
		t.Fatalf("mixed tx code = %v, want INVALID_CRDT", res.Codes[0])
	}
	// The next clean block's merge seeds from the grown dev1 document, so
	// the failed transaction's good delta reaches the committed value.
	commitReadingBlocks(t, env, 2, env.peer.Height()+1)
}

// TestRestartedPeerRebuildStateByteIdentical is the acceptance test for
// the replay half: after kill + restart, RebuildState replays the full
// persisted chain — including an INVALID_CRDT transaction whose good
// delta must still extend its key's document — and reproduces the live
// pre-restart world state byte for byte.
func TestRestartedPeerRebuildStateByteIdentical(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir}
	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	commitReadingBlocks(t, env, 2, 1)
	commitMixedHistory(t, env)
	before := snapshotState(env.peer, "crdt/dev1", "crdt/dev2")
	height := env.peer.Height()
	if err := env.peer.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	p := restarted.peer
	defer p.Close()
	if got := p.Height(); got != height {
		t.Fatalf("resumed height = %d, want %d", got, height)
	}
	if err := p.RebuildState(); err != nil {
		t.Fatalf("RebuildState after restart: %v", err)
	}
	if got := p.Height(); got != height {
		t.Fatalf("rebuilt height = %d, want %d", got, height)
	}
	after := snapshotState(p, "crdt/dev1", "crdt/dev2")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rebuilt state diverged from the live pre-restart state:\nbefore %v\nafter  %v", before, after)
	}
	// Duplicate screening was rebuilt along with the state.
	dup := restarted.endorseTx(t, "tx-mixed", "iot", "record", "dev1", "0")
	num, hash := p.Chain().LastRef()
	res, err := p.CommitBlock(makeBlockAt(t, num, hash, []*ledger.Transaction{dup}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeDuplicate {
		t.Fatalf("replayed tx ID recommitted with code %v, want DUPLICATE_TXID", res.Codes[0])
	}
}

// TestRebuildStateReproducesInvalidCRDTHistory pins the same determinism
// on the in-memory chain path (no restart involved): replay used to skip
// INVALID_CRDT transactions entirely, silently dropping their intact
// deltas from the rebuilt documents.
func TestRebuildStateReproducesInvalidCRDTHistory(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	commitReadingBlocks(t, env, 1, 1)
	commitMixedHistory(t, env)
	before := snapshotState(env.peer, "crdt/dev1", "crdt/dev2")
	if err := env.peer.RebuildState(); err != nil {
		t.Fatal(err)
	}
	after := snapshotState(env.peer, "crdt/dev1", "crdt/dev2")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rebuilt state diverged:\nbefore %v\nafter  %v", before, after)
	}
}

// TestBlockLogGapReplayedOnOpen crashes "between" the block append and the
// state apply — simulated in the extreme by wiping the state store
// entirely — and requires opening to replay the gap from the block log:
// the ledger is the recovery root, the world state a rebuildable cache.
func TestBlockLogGapReplayedOnOpen(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir}
	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	const n = 3
	blocks := commitReadingBlocks(t, env, n, 1)
	before := snapshotState(env.peer, "crdt/dev1")
	if err := env.peer.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "ch1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "blocks" {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, "ch1", e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	p := restarted.peer
	defer p.Close()
	if got := p.Height(); got != n {
		t.Fatalf("replayed height = %d, want %d", got, n)
	}
	after := snapshotState(p, "crdt/dev1")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("gap replay diverged from the committed state:\nbefore %v\nafter  %v", before, after)
	}
	// Re-delivered history fast-forwards, and fresh blocks commit.
	for _, b := range blocks {
		res, err := p.CommitBlock(b)
		if err != nil || !res.FastForwarded {
			t.Fatalf("re-delivering block %d: res=%+v err=%v", b.Header.Number, res, err)
		}
	}
	commitReadingBlocks(t, restarted, 1, n+1)
	if got := p.Height(); got != n+1 {
		t.Fatalf("height after post-replay commit = %d, want %d", got, n+1)
	}
}

// truncateLastFrame removes the final CRC frame from a framed log file by
// walking the length prefixes.
func truncateLastFrame(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var off, prev int64
	for off < int64(len(data)) {
		prev = off
		length := binary.LittleEndian.Uint32(data[off : off+4])
		off += 8 + int64(length)
	}
	if err := os.Truncate(path, prev); err != nil {
		t.Fatal(err)
	}
}

// TestNewRefusesBlockLogBehindState covers the two unrecoverable shapes —
// durably committed bodies that are gone cannot be re-derived, so opening
// must refuse loudly (with PersistBlocksOff as the documented escape
// hatch) rather than continue with a hole in the ledger.
func TestNewRefusesBlockLogBehindState(t *testing.T) {
	newLSMEnv := func(t *testing.T) (string, CommitterConfig) {
		dir := t.TempDir()
		committer := CommitterConfig{Backend: BackendLSM, DataDir: dir}
		env := newEnvWithCommitter(t, true, committer)
		env.install(t, "iot", iotChaincode())
		commitReadingBlocks(t, env, 2, 1)
		if err := env.peer.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, committer
	}
	newPeer := func(committer CommitterConfig) (*Peer, error) {
		ca, err := cryptoid.NewCA("Org1")
		if err != nil {
			t.Fatal(err)
		}
		signer, err := ca.Issue("Org1.peer0")
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{
			Name: "Org1.peer0", MSPID: "Org1", Channels: []string{"ch1"},
			EnableCRDT: true, Committer: committer,
		}, signer, cryptoid.NewMSP())
	}

	t.Run("missing-block-log", func(t *testing.T) {
		dir, committer := newLSMEnv(t)
		if err := os.RemoveAll(filepath.Join(dir, "ch1", "blocks")); err != nil {
			t.Fatal(err)
		}
		// Explicitly requested block persistence cannot be satisfied: the
		// committed bodies are gone for good.
		committer.PersistBlocks = PersistBlocksOn
		_, err := newPeer(committer)
		if err == nil {
			t.Fatal("New accepted PersistBlocksOn over a checkpointed state with no block log")
		}
		if !strings.Contains(err.Error(), "PersistBlocksOff") {
			t.Fatalf("refusal does not name the escape hatch: %v", err)
		}
		// Auto mode refuses the same way: it never adopts a store without
		// its block log.
		committer.PersistBlocks = PersistBlocksAuto
		_, err = newPeer(committer)
		if err == nil {
			t.Fatal("New accepted Auto mode over a checkpointed state with no block log")
		}
		if !strings.Contains(err.Error(), "PersistBlocksOff") {
			t.Fatalf("Auto refusal does not name the escape hatch: %v", err)
		}
		// PersistBlocksOff resumes the store checkpoint-only.
		committer.PersistBlocks = PersistBlocksOff
		p2, err := newPeer(committer)
		if err != nil {
			t.Fatalf("PersistBlocksOff fallback: %v", err)
		}
		p2.Close()
	})

	t.Run("truncated-block-log", func(t *testing.T) {
		dir, committer := newLSMEnv(t)
		truncateLastFrame(t, filepath.Join(dir, "ch1", "blocks", "blocks.log"))
		if err := os.Remove(filepath.Join(dir, "ch1", "blocks", "blocks.idx")); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if _, err := newPeer(committer); err == nil {
			t.Fatal("New accepted a block log truncated below the state checkpoint")
		}
	})
}
