package peer

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// makeBlockAt assembles a block chaining onto an explicit (number, hash)
// resume point — what the rebuilt ordering service does after a restart,
// when no block body is available to chain from.
func makeBlockAt(t *testing.T, afterNum uint64, afterHash []byte, txs []*ledger.Transaction) *ledger.Block {
	t.Helper()
	a := orderer.NewAssemblerAt(afterNum, afterHash)
	block, err := a.Assemble(orderer.Batch{Transactions: txs, Reason: orderer.CutMaxMessages})
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// snapshotState captures everything observable about a peer's world state:
// the full key range and the CRDT/checkpoint metadata entries.
func snapshotState(p *Peer, keys ...string) map[string]string {
	out := make(map[string]string)
	for _, kv := range p.DB().GetRange("", "") {
		out["data/"+kv.Key] = fmt.Sprintf("%s@%v", kv.Value, kv.VersionedValue.Version)
	}
	for _, key := range keys {
		out["meta/"+key] = string(p.DB().GetMeta(key))
	}
	out["meta/"+channel.MetaCheckpoint] = string(p.DB().GetMeta(channel.MetaCheckpoint))
	return out
}

// commitReadingBlocks endorses and commits n single-device blocks, returning
// the pristine delivered blocks (as the orderer would re-deliver them).
func commitReadingBlocks(t *testing.T, env *testEnv, n int, startBlock uint64) []*ledger.Block {
	t.Helper()
	var blocks []*ledger.Block
	for b := uint64(0); b < uint64(n); b++ {
		var txs []*ledger.Transaction
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("tx-%d-%d", startBlock+b, i)
			txs = append(txs, env.endorseTx(t, id, "iot", "record", "dev1", fmt.Sprintf("%d", 10*int(startBlock+b)+i)))
		}
		block := makeBlock(t, env.peer, txs)
		if _, err := env.peer.CommitBlock(block); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// TestDiskPeerCrashRestart is the crash-restart acceptance test: commit N
// blocks on an LSM-backed peer, drop the peer (only its data directory
// survives), rebuild it, and require byte-identical state, the recorded
// resume height, and fast-forward (no re-validation, no state mutation) of
// re-delivered history.
func TestDiskPeerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir}

	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	const n = 3
	blocks := commitReadingBlocks(t, env, n, 1)
	before := snapshotState(env.peer, "crdt/dev1")
	if err := env.peer.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Restart": a fresh peer over the same data directory. Same CA/MSP,
	// new process state.
	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	p := restarted.peer
	defer p.Close()

	if got := p.Height(); got != n {
		t.Fatalf("resumed height = %d, want %d", got, n)
	}
	if got := p.Chain().Height(); got != n+1 {
		t.Fatalf("resumed chain height = %d, want %d (checkpointed chain)", got, n+1)
	}
	after := snapshotState(p, "crdt/dev1")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state diverged across restart:\nbefore %v\nafter  %v", before, after)
	}

	// Re-delivered history (e.g. a deliver stream replaying from an
	// earlier position) fast-forwards: no validation, no state change.
	for _, block := range blocks {
		res, err := p.CommitBlock(block)
		if err != nil {
			t.Fatalf("re-delivering block %d: %v", block.Header.Number, err)
		}
		if !res.FastForwarded {
			t.Fatalf("block %d was re-validated instead of fast-forwarded", block.Header.Number)
		}
	}
	if got := snapshotState(p, "crdt/dev1"); !reflect.DeepEqual(before, got) {
		t.Fatalf("fast-forward mutated state:\nbefore %v\nafter  %v", before, got)
	}
	for _, s := range p.CommitTimings() {
		if s.Stage == StageEndorse || s.Stage == StageMerge || s.Stage == StageApply {
			if s.Count > 0 {
				t.Fatalf("fast-forward ran the %s stage %d times", s.Stage, s.Count)
			}
		}
	}

	// The peer keeps committing: block N+1 extends both the chain and the
	// CRDT document seeded from the persisted metadata space.
	commitReadingBlocks(t, restarted, 1, n+1)
	if got := p.Height(); got != n+1 {
		t.Fatalf("height after new commit = %d, want %d", got, n+1)
	}
	vv, ok := p.DB().Get("dev1")
	if !ok {
		t.Fatal("dev1 missing after restart commit")
	}
	if len(vv.Value) <= len(before["data/dev1"]) {
		t.Fatal("new readings did not extend the restored CRDT document")
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatalf("chain verify after restart: %v", err)
	}

	// Duplicate screening covers transactions seen since the restart.
	dup := restarted.endorseTx(t, fmt.Sprintf("tx-%d-0", n+1), "iot", "record", "dev1", "99")
	res, err := p.CommitBlock(makeBlock(t, p, []*ledger.Transaction{dup}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codes[0] != ledger.CodeDuplicate {
		t.Fatalf("post-restart duplicate code = %v", res.Codes[0])
	}
}

// TestLSMPeerCrashRestart runs the crash-restart acceptance path on the
// LSM backend: commit N blocks, drop the peer (only its data directory
// survives — WAL, sorted runs, manifest, block log), rebuild it, and
// require byte-identical state, the recorded resume height and
// fast-forward of re-delivered history. This is the end-to-end pin that
// the backend-selection wiring (channel.newStateDB, the durability hook
// ordering against the block store) works for BackendLSM, not just that
// the statedb-level unit tests pass.
func TestLSMPeerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir, StateCacheBytes: 1 << 20}

	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	const n = 3
	blocks := commitReadingBlocks(t, env, n, 1)
	before := snapshotState(env.peer, "crdt/dev1")
	if err := env.peer.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The LSM store is what persisted.
	if _, err := os.Stat(filepath.Join(dir, "ch1", "wal.log")); err != nil {
		t.Fatalf("no LSM write-ahead log under the channel directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ch1", "blocks", "blocks.log")); err != nil {
		t.Fatalf("block persistence is not on by default with the LSM backend: %v", err)
	}

	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	p := restarted.peer
	defer p.Close()

	if got := p.Height(); got != n {
		t.Fatalf("resumed height = %d, want %d", got, n)
	}
	after := snapshotState(p, "crdt/dev1")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state diverged across restart:\nbefore %v\nafter  %v", before, after)
	}
	for _, block := range blocks {
		res, err := p.CommitBlock(block)
		if err != nil {
			t.Fatalf("re-delivering block %d: %v", block.Header.Number, err)
		}
		if !res.FastForwarded {
			t.Fatalf("block %d was re-validated instead of fast-forwarded", block.Header.Number)
		}
	}
	// The peer keeps committing on the restored store.
	commitReadingBlocks(t, restarted, 1, n+1)
	if got := p.Height(); got != n+1 {
		t.Fatalf("height after new commit = %d, want %d", got, n+1)
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatalf("chain verify after restart: %v", err)
	}
}

// TestDiskPeerRestartWithoutRedelivery models the fabricnet restart: the
// rebuilt peer never sees old blocks again — the ordering service resumes
// numbering after the checkpoint — and must commit fresh blocks directly.
// Block persistence is explicitly OFF: this is the state-checkpoint-only
// fallback, where the restarted peer resumes committing but holds no
// pre-restart bodies (the block-store path is covered by
// blockstore_restart_test.go).
func TestDiskPeerRestartWithoutRedelivery(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir, PersistBlocks: PersistBlocksOff}

	env := newEnvWithCommitter(t, true, committer)
	env.install(t, "iot", iotChaincode())
	commitReadingBlocks(t, env, 2, 1)
	if err := env.peer.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	defer restarted.peer.Close()

	// makeBlock assembles after Chain().Last()... which is nil on a
	// checkpointed chain; endorse + assemble against the resume point.
	num, hash := restarted.peer.Chain().LastRef()
	if num != 2 {
		t.Fatalf("resume point = %d, want 2", num)
	}
	tx := restarted.endorseTx(t, "tx-fresh", "iot", "record", "dev1", "77")
	block := makeBlockAt(t, num, hash, []*ledger.Transaction{tx})
	res, err := restarted.peer.CommitBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastForwarded || res.Codes[0] != ledger.CodeCRDTMerged {
		t.Fatalf("fresh block after restart: %+v", res)
	}
	if got := restarted.peer.Height(); got != 3 {
		t.Fatalf("height = %d, want 3", got)
	}
	// Duplicate screening survives the restart: a transaction reusing an
	// ID committed before the restart fails as a duplicate even though the
	// old blocks were never re-delivered.
	oldID := "tx-1-0"
	dup := restarted.endorseTx(t, oldID, "iot", "record", "dev1", "13")
	num, hash = restarted.peer.Chain().LastRef()
	dupRes, err := restarted.peer.CommitBlock(makeBlockAt(t, num, hash, []*ledger.Transaction{dup}))
	if err != nil {
		t.Fatal(err)
	}
	if dupRes.Codes[0] != ledger.CodeDuplicate {
		t.Fatalf("pre-restart tx ID recommitted with code %v, want DUPLICATE_TXID", dupRes.Codes[0])
	}

	// RebuildState is the full-chain recovery path; with block persistence
	// off, a checkpointed peer must refuse it rather than wipe durable
	// state it cannot re-derive — and the refusal must name the real
	// checkpoint height, not a derivation that can drift from it.
	err = restarted.peer.RebuildState()
	if err == nil {
		t.Fatal("RebuildState succeeded on a checkpointed chain without a block store")
	}
	cpNum, _, ok := restarted.peer.Chain().Checkpoint()
	if !ok {
		t.Fatal("restarted chain is not checkpointed")
	}
	if want := fmt.Sprintf("checkpointed at block %d", cpNum); !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal does not name the checkpoint height (%q): %v", want, err)
	}
}

// TestFastForwardRejectsForgedBlocks: a block numbered at or below the
// state height is only fast-forwarded when it matches the locally recorded
// history — a forged "old" block must fail loudly, never silently succeed
// (it would otherwise poison duplicate screening and masquerade as
// committed history).
func TestFastForwardRejectsForgedBlocks(t *testing.T) {
	env := newEnv(t, true)
	env.install(t, "iot", iotChaincode())
	commitReadingBlocks(t, env, 2, 1)

	// Forge block 2: correct number and prev-hash, different transactions.
	b1, err := env.peer.Chain().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	forged := makeBlockAt(t, 1, b1.HeaderHash(),
		[]*ledger.Transaction{env.endorseTx(t, "forged", "iot", "record", "dev1", "666")})
	if _, err := env.peer.CommitBlock(forged); err == nil {
		t.Fatal("forged re-delivered block accepted")
	}
	rt, err := env.peer.runtime("")
	if err != nil {
		t.Fatal(err)
	}
	rt.Lock()
	seen := rt.WasCommitted("forged")
	rt.Unlock()
	if seen {
		t.Fatal("forged block's tx ID entered duplicate screening")
	}

	// Same attack against a restarted peer's checkpoint block.
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendLSM, DataDir: dir}
	denv := newEnvWithCommitter(t, true, committer)
	denv.install(t, "iot", iotChaincode())
	blocks := commitReadingBlocks(t, denv, 2, 1)
	if err := denv.peer.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := newEnvWithCommitter(t, true, committer)
	restarted.install(t, "iot", iotChaincode())
	defer restarted.peer.Close()
	forgedCp := makeBlockAt(t, 1, blocks[0].HeaderHash(),
		[]*ledger.Transaction{restarted.endorseTx(t, "forged-cp", "iot", "record", "dev1", "666")})
	if _, err := restarted.peer.CommitBlock(forgedCp); err == nil {
		t.Fatal("forged checkpoint block accepted after restart")
	}
	// The genuine checkpoint block still fast-forwards.
	if res, err := restarted.peer.CommitBlock(blocks[1]); err != nil || !res.FastForwarded {
		t.Fatalf("genuine checkpoint block: res=%+v err=%v", res, err)
	}
}

// TestNewRejectsDamagedStore writes a durable store with height but no
// chain checkpoint (damage, or a store from an incompatible version): New
// must refuse it — a genesis chain over a non-zero height would make
// fast-forward silently swallow every new block up to that height.
func TestNewRejectsDamagedStore(t *testing.T) {
	dir := t.TempDir()
	// The peer opens each channel's store under DataDir/<channel-ID>;
	// damage the store where channel "ch1" will look for it.
	db, err := statedb.NewLSM(filepath.Join(dir, "ch1"))
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	batch.Put("k", []byte("v"), rwset.Version{BlockNum: 3})
	db.Apply(batch, rwset.Version{BlockNum: 3})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Issue("Org1.peer0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Name: "Org1.peer0", MSPID: "Org1", ChannelID: "ch1",
		Committer: CommitterConfig{Backend: BackendLSM, DataDir: dir},
	}, signer, cryptoid.NewMSP())
	if err == nil {
		t.Fatal("New accepted a durable store with height but no checkpoint")
	}
}

// TestNewRejectsBadBackendConfig covers the selection plumbing end to end:
// unknown or removed backend names and the LSM backend without a data
// directory must fail peer construction (the per-backend matrix itself is
// unit-tested in internal/channel).
func TestNewRejectsBadBackendConfig(t *testing.T) {
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Issue("Org1.peer0")
	if err != nil {
		t.Fatal(err)
	}
	newPeer := func(committer CommitterConfig) (*Peer, error) {
		return New(Config{
			Name: "Org1.peer0", MSPID: "Org1", ChannelID: "ch1",
			Committer: committer,
		}, signer, cryptoid.NewMSP())
	}
	cases := map[string]CommitterConfig{
		"unknown-backend":  {Backend: "couchdb"},
		"lsm-no-datadir":   {Backend: BackendLSM},
		"misspelled-entry": {Backend: "Memory"},
		"removed-sharded":  {Backend: "sharded"},
		"removed-disk":     {Backend: "disk"},
	}
	for name, committer := range cases {
		if _, err := newPeer(committer); err == nil {
			t.Errorf("%s: New accepted %+v", name, committer)
		}
	}
	for _, committer := range []CommitterConfig{
		{},
		{Backend: BackendMemory},
		{Backend: BackendLSM, DataDir: t.TempDir()},
	} {
		p, err := newPeer(committer)
		if err != nil {
			t.Errorf("New(%+v): %v", committer, err)
			continue
		}
		p.Close()
	}
}
