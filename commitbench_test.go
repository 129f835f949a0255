// Commit-pipeline benchmark: one delivered block driven through the staged
// committer at several worker counts, CRDT on and off, measuring the real
// pipeline (ed25519 endorsement checks, merge, MVCC, state apply). Results
// are summarized into BENCH_commit.json for the perf trajectory.
//
// Run: go test -bench=BenchmarkCommitPipeline -benchtime=10x .
package fabriccrdt_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/peer"
)

// commitFixture endorses benchmark blocks once; fresh committer peers
// (sharing the CA, MSP, channel list and chaincode) then replay them under
// different pipeline configurations.
type commitFixture struct {
	ca         *cryptoid.CA
	msp        *cryptoid.MSP
	endorser   *peer.Peer
	client     *cryptoid.Signer
	enableCRDT bool
	channels   []string
	policy     *endorse.Policy
	nPeers     int
}

// benchChaincode appends one reading to a device document (PutCRDT); on a
// stock peer the endorser drops the flag and the write validates via MVCC.
func benchChaincode() chaincode.Chaincode {
	return chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		device, reading := params[0], params[1]
		if _, err := stub.GetState(device); err != nil {
			return err
		}
		return stub.PutCRDT(device, []byte(`{"r":[{"t":"`+reading+`"}]}`))
	})
}

func newCommitFixture(b *testing.B, enableCRDT bool) *commitFixture {
	b.Helper()
	return newCommitFixtureChannels(b, enableCRDT, "bench")
}

// newCommitFixtureChannels is newCommitFixture with peers joining an
// explicit channel list (the multi-channel scaling benchmark).
func newCommitFixtureChannels(b *testing.B, enableCRDT bool, channels ...string) *commitFixture {
	b.Helper()
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	msp := cryptoid.NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	client, err := ca.Issue("bench-client")
	if err != nil {
		b.Fatal(err)
	}
	fix := &commitFixture{
		ca: ca, msp: msp, client: client, enableCRDT: enableCRDT,
		channels: channels,
		policy:   endorse.MustParse("'Org1.member'"),
	}
	fix.endorser = fix.newPeer(b, peer.CommitterConfig{Workers: 1})
	return fix
}

func (f *commitFixture) newPeer(b *testing.B, committer peer.CommitterConfig) *peer.Peer {
	b.Helper()
	f.nPeers++
	name := fmt.Sprintf("Org1.bench%d", f.nPeers)
	signer, err := f.ca.Issue(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := peer.New(peer.Config{
		Name: name, MSPID: "Org1", Channels: f.channels,
		EnableCRDT: f.enableCRDT, Committer: committer,
	}, signer, f.msp)
	if err != nil {
		b.Fatal(err)
	}
	p.InstallChaincode("bench", benchChaincode(), f.policy)
	return p
}

// endorsedBlock assembles a block of n conflicting transactions spread over
// 4 device keys, endorsed against the (never-committing) endorser's state.
func (f *commitFixture) endorsedBlock(b *testing.B, n int) *ledger.Block {
	b.Helper()
	return f.endorsedBlockOn(b, f.channels[0], n)
}

// endorsedBlockOn is endorsedBlock against an explicit channel; the block
// chains onto that channel's genesis, so it commits on any fresh fixture
// peer.
func (f *commitFixture) endorsedBlockOn(b *testing.B, channelID string, n int) *ledger.Block {
	b.Helper()
	creator, err := f.client.Identity.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]*ledger.Transaction, n)
	for i := range txs {
		txID := fmt.Sprintf("bench-%s-%d", channelID, i)
		args := [][]byte{[]byte("record"), []byte(fmt.Sprintf("dev%d", i%4)), []byte(fmt.Sprintf("%d", i))}
		resp, err := f.endorser.Endorse(peer.Proposal{
			TxID: txID, ChannelID: channelID, Chaincode: "bench", Args: args, Creator: creator,
		})
		if err != nil {
			b.Fatal(err)
		}
		txs[i] = &ledger.Transaction{
			ID: txID, ChannelID: channelID, Chaincode: "bench", Creator: creator, Args: args,
			RWSet:        resp.RWSet,
			Endorsements: []ledger.Endorsement{{Endorser: resp.Endorser, Signature: resp.Signature}},
		}
	}
	chain, err := f.endorser.ChainOn(channelID)
	if err != nil {
		b.Fatal(err)
	}
	assembler := orderer.NewAssembler(chain.Last())
	block, err := assembler.Assemble(orderer.Batch{Transactions: txs, Reason: orderer.CutMaxMessages})
	if err != nil {
		b.Fatal(err)
	}
	return block
}

// commitBenchEntry is one BENCH_commit.json record.
type commitBenchEntry struct {
	CRDT    bool   `json:"crdt"`
	Backend string `json:"backend"`
	// PersistBlocks marks disk-backend runs with the durable block store
	// on (one block-body append per commit beside the state log).
	PersistBlocks bool `json:"persist_blocks,omitempty"`
	// CacheBytes is the LSM backend's block-cache budget
	// (BenchmarkCommitLSMCache; 0 = the statedb default, and for every
	// other backend, which has no block cache).
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// Channels is how many channels committed concurrently (1 for the
	// single-channel pipeline benchmarks). With N > 1, BlockTxs counts one
	// block per channel, NsPerBlock is the wall time for the whole round
	// (one block on every channel in parallel) and TxPerSec is the
	// aggregate across channels.
	Channels int `json:"channels"`
	// Pipeline is the async commit pipeline depth (0 for the synchronous
	// per-block benchmarks). With Pipeline > 0, BlockTxs counts one block
	// and NsPerBlock is wall time per block of the whole pipelined
	// multi-block stream.
	Pipeline   int     `json:"pipeline,omitempty"`
	BlockTxs   int     `json:"block_txs"`
	Workers    int     `json:"workers"`
	NsPerBlock int64   `json:"ns_per_block"`
	TxPerSec   float64 `json:"tx_per_s"`
	// Registry snapshots: the last measured peer's obs counters at the end
	// of the run — blocks committed, transactions finalized (committed +
	// rejected) and the process-global healed deliver-retry count. Omitted
	// on entries predating the metrics registry.
	ObsBlocks  int64 `json:"obs_blocks,omitempty"`
	ObsTxs     int64 `json:"obs_txs,omitempty"`
	ObsRetries int64 `json:"obs_retries,omitempty"`
}

// obsSnapshot copies the peer's registry counters into the entry. The
// registry outlives Close, so benchmarks that close their peers per
// iteration still snapshot the last one. Not part of benchKey — snapshots
// are payload, not configuration identity.
func (e commitBenchEntry) obsSnapshot(p *peer.Peer) commitBenchEntry {
	reg := p.Metrics()
	if v, ok := reg.Total(obs.MetricPeerBlocksCommitted); ok {
		e.ObsBlocks = int64(v)
	}
	if v, ok := reg.Total(obs.MetricPeerTxsCommitted); ok {
		e.ObsTxs = int64(v)
	}
	if v, ok := obs.Default().Total(obs.MetricDeliverRetries); ok {
		e.ObsRetries = int64(v)
	}
	return e
}

var (
	commitBenchMu      sync.Mutex
	commitBenchResults = make(map[string]commitBenchEntry)
)

// benchKey is one configuration's identity in BENCH_commit.json.
func benchKey(e commitBenchEntry) string {
	return fmt.Sprintf("%v/%s/%v/%d/%d/%d/%d/%d", e.CRDT, e.Backend, e.PersistBlocks, e.CacheBytes, e.Channels, e.Pipeline, e.BlockTxs, e.Workers)
}

// loadCommitBench seeds the in-memory result map from the committed
// BENCH_commit.json, so running a SUBSET of the benchmarks updates those
// configurations in place instead of silently deleting every other
// dimension's entries from the file.
func loadCommitBench() {
	data, err := os.ReadFile("BENCH_commit.json")
	if err != nil {
		return // no prior results
	}
	var entries []commitBenchEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return // unreadable: the rewrite will replace it
	}
	for _, e := range entries {
		if e.Channels == 0 {
			e.Channels = 1
		}
		commitBenchResults[benchKey(e)] = e
	}
}

// recordCommitBench keeps the latest measurement per configuration and
// rewrites BENCH_commit.json, preserving entries of configurations this
// run did not measure (benchmarks re-run sub-benchmarks with growing N;
// last = most accurate).
func recordCommitBench(b *testing.B, e commitBenchEntry) {
	b.Helper()
	commitBenchMu.Lock()
	defer commitBenchMu.Unlock()
	if len(commitBenchResults) == 0 {
		loadCommitBench()
	}
	if e.Channels == 0 {
		e.Channels = 1
	}
	commitBenchResults[benchKey(e)] = e
	entries := make([]commitBenchEntry, 0, len(commitBenchResults))
	for _, v := range commitBenchResults {
		entries = append(entries, v)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, c := entries[i], entries[j]
		if a.CRDT != c.CRDT {
			return a.CRDT
		}
		if a.Backend != c.Backend {
			return a.Backend < c.Backend
		}
		if a.PersistBlocks != c.PersistBlocks {
			return !a.PersistBlocks
		}
		if a.CacheBytes != c.CacheBytes {
			return a.CacheBytes < c.CacheBytes
		}
		if a.Channels != c.Channels {
			return a.Channels < c.Channels
		}
		if a.Pipeline != c.Pipeline {
			return a.Pipeline < c.Pipeline
		}
		if a.BlockTxs != c.BlockTxs {
			return a.BlockTxs < c.BlockTxs
		}
		return a.Workers < c.Workers
	})
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_commit.json", data, 0o644); err != nil {
		b.Logf("writing BENCH_commit.json: %v", err)
	}
}

// BenchmarkCommitPipeline measures CommitBlock wall time per configuration.
// Peer construction (key issuance, chaincode install) happens off the clock;
// only the staged pipeline is timed.
func BenchmarkCommitPipeline(b *testing.B) {
	for _, enableCRDT := range []bool{true, false} {
		mode := "FabricCRDT"
		if !enableCRDT {
			mode = "Fabric"
		}
		for _, blockTxs := range []int{25, 100} {
			fix := newCommitFixture(b, enableCRDT)
			block := fix.endorsedBlock(b, blockTxs)
			for _, workers := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/txs=%d/workers=%d", mode, blockTxs, workers)
				b.Run(name, func(b *testing.B) {
					cfg := peer.CommitterConfig{Workers: workers}
					var total time.Duration
					var lastPeer *peer.Peer
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						p := fix.newPeer(b, cfg)
						lastPeer = p
						b.StartTimer()
						start := time.Now()
						res, err := p.CommitBlock(block)
						if err != nil {
							b.Fatal(err)
						}
						total += time.Since(start)
						if enableCRDT && res.CommittedTx != blockTxs {
							b.Fatalf("committed %d/%d", res.CommittedTx, blockTxs)
						}
					}
					nsPerBlock := total.Nanoseconds() / int64(b.N)
					txPerSec := float64(blockTxs) / (float64(nsPerBlock) / 1e9)
					b.ReportMetric(txPerSec, "tx/s")
					for _, s := range lastPeer.CommitTimings() {
						b.ReportMetric(float64(s.Avg.Nanoseconds()), s.Stage+"_ns")
					}
					recordCommitBench(b, commitBenchEntry{
						CRDT: enableCRDT, Backend: peer.BackendMemory, BlockTxs: blockTxs, Workers: workers,
						NsPerBlock: nsPerBlock, TxPerSec: txPerSec,
					}.obsSnapshot(lastPeer))
				})
			}
		}
	}
}

// BenchmarkCommitBackends measures the same staged pipeline with each
// state backend behind it — the cost of durability (disk, lsm) and the
// block store's append overhead (persistblocks: disk with block-body
// persistence, the durable backends' default configuration). CRDT on,
// 100-transaction blocks, 4 workers; one fresh peer (and, for the durable
// backends, a fresh data directory) per iteration so the logs start empty
// every time. The lsm entry here is the in-memtable baseline (one block
// never triggers a flush); BenchmarkCommitLSMCache covers datasets that
// spill to sorted runs and stress the block cache.
func BenchmarkCommitBackends(b *testing.B) {
	const blockTxs, workers = 100, 4
	fix := newCommitFixture(b, true)
	block := fix.endorsedBlock(b, blockTxs)
	backends := []struct {
		label         string
		backend       string
		persistBlocks bool
		cfg           func(b *testing.B) peer.CommitterConfig
	}{
		{peer.BackendMemory, peer.BackendMemory, false, func(b *testing.B) peer.CommitterConfig {
			return peer.CommitterConfig{Workers: workers, Backend: peer.BackendMemory}
		}},
		{peer.BackendDisk, peer.BackendDisk, false, func(b *testing.B) peer.CommitterConfig {
			return peer.CommitterConfig{Workers: workers, Backend: peer.BackendDisk, DataDir: b.TempDir(),
				PersistBlocks: peer.PersistBlocksOff}
		}},
		{"persistblocks", peer.BackendDisk, true, func(b *testing.B) peer.CommitterConfig {
			return peer.CommitterConfig{Workers: workers, Backend: peer.BackendDisk, DataDir: b.TempDir(),
				PersistBlocks: peer.PersistBlocksOn}
		}},
		{peer.BackendLSM, peer.BackendLSM, false, func(b *testing.B) peer.CommitterConfig {
			return peer.CommitterConfig{Workers: workers, Backend: peer.BackendLSM, DataDir: b.TempDir(),
				PersistBlocks: peer.PersistBlocksOff}
		}},
	}
	for _, backend := range backends {
		b.Run(fmt.Sprintf("backend=%s", backend.label), func(b *testing.B) {
			var total time.Duration
			var lastPeer *peer.Peer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := fix.newPeer(b, backend.cfg(b))
				lastPeer = p
				b.StartTimer()
				start := time.Now()
				res, err := p.CommitBlock(block)
				if err != nil {
					b.Fatal(err)
				}
				total += time.Since(start)
				b.StopTimer()
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
				if res.CommittedTx != blockTxs {
					b.Fatalf("committed %d/%d", res.CommittedTx, blockTxs)
				}
				b.StartTimer()
			}
			nsPerBlock := total.Nanoseconds() / int64(b.N)
			txPerSec := float64(blockTxs) / (float64(nsPerBlock) / 1e9)
			b.ReportMetric(txPerSec, "tx/s")
			recordCommitBench(b, commitBenchEntry{
				CRDT: true, Backend: backend.backend,
				PersistBlocks: backend.persistBlocks, BlockTxs: blockTxs, Workers: workers,
				NsPerBlock: nsPerBlock, TxPerSec: txPerSec,
			}.obsSnapshot(lastPeer))
		})
	}
}

// endorsedStream assembles nBlocks hash-chained blocks of txsPerBlock
// conflicting transactions each (unique IDs across the stream), endorsed
// against the never-committing endorser — a deliver stream replayable on
// any fresh fixture peer.
func (f *commitFixture) endorsedStream(b *testing.B, nBlocks, txsPerBlock int) []*ledger.Block {
	b.Helper()
	creator, err := f.client.Identity.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	channelID := f.channels[0]
	chain, err := f.endorser.ChainOn(channelID)
	if err != nil {
		b.Fatal(err)
	}
	assembler := orderer.NewAssembler(chain.Last())
	blocks := make([]*ledger.Block, 0, nBlocks)
	for blk := 0; blk < nBlocks; blk++ {
		txs := make([]*ledger.Transaction, txsPerBlock)
		for i := range txs {
			txID := fmt.Sprintf("stream-%d-%d", blk, i)
			args := [][]byte{[]byte("record"), []byte(fmt.Sprintf("dev%d", i%4)), []byte(fmt.Sprintf("%d-%d", blk, i))}
			resp, err := f.endorser.Endorse(peer.Proposal{
				TxID: txID, ChannelID: channelID, Chaincode: "bench", Args: args, Creator: creator,
			})
			if err != nil {
				b.Fatal(err)
			}
			txs[i] = &ledger.Transaction{
				ID: txID, ChannelID: channelID, Chaincode: "bench", Creator: creator, Args: args,
				RWSet:        resp.RWSet,
				Endorsements: []ledger.Endorsement{{Endorser: resp.Endorser, Signature: resp.Signature}},
			}
		}
		block, err := assembler.Assemble(orderer.Batch{Transactions: txs, Reason: orderer.CutMaxMessages})
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// BenchmarkCommitAsync measures the async cross-block commit pipeline: a
// 24-block deliver stream (10 CRDT transactions per block) driven through
// Peer.CommitPipeline at depths 0/1/2/4 over the DURABLE peer
// configuration (disk backend with its default block store, fsync per
// committed block — each commit appends the block body, then the state
// batch, and syncs both). Depth 0 is the
// synchronous baseline; depth >= 1 decodes and endorsement-validates
// block N+1 while block N is in merge/mvcc/apply/append. Workers is
// pinned to 1 so intra-block parallelism contributes nothing — the
// measured speedup is pure cross-block overlap. On a multi-core host the
// whole prepare stage (decode + ed25519 verification) hides behind the
// previous block's commit; on a single-core host only finalize's true
// waits (the per-block fsync) can be hidden, which is why the benchmark
// runs the durable configuration — it is both the production shape and
// the one with real latency to hide anywhere. The reported figure is the
// MEDIAN iteration (fsync hiccups and host jitter on this shared
// single-core container are outliers that would swamp the overlap signal
// in a mean). Commit outcomes are identical at every depth
// (TestCommitPipelineDepthDeterminism); only wall clock moves.
func BenchmarkCommitAsync(b *testing.B) {
	const nBlocks, blockTxs = 24, 10
	depths := []int{0, 1, 2, 4}
	fix := newCommitFixture(b, true)
	blocks := fix.endorsedStream(b, nBlocks, blockTxs)
	runs := make(map[int][]time.Duration, len(depths))
	lastPeers := make(map[int]*peer.Peer, len(depths))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Depths are interleaved within each iteration (not one
		// sub-benchmark window per depth) so a host-load spike on this
		// shared container degrades every depth equally instead of
		// biasing whichever depth it lands on.
		for _, depth := range depths {
			b.StopTimer()
			p := fix.newPeer(b, peer.CommitterConfig{
				Workers: 1, Pipeline: depth,
				Backend: peer.BackendDisk, DataDir: b.TempDir(), SyncEveryApply: true,
			})
			lastPeers[depth] = p
			deliver := make(chan *ledger.Block, len(blocks))
			for _, blk := range blocks {
				deliver <- blk
			}
			close(deliver)
			b.StartTimer()
			start := time.Now()
			if err := p.CommitPipeline(fix.channels[0], deliver, depth); err != nil {
				b.Fatal(err)
			}
			runs[depth] = append(runs[depth], time.Since(start))
			b.StopTimer()
			if h := p.Height(); h != nBlocks {
				b.Fatalf("depth %d: height %d, want %d", depth, h, nBlocks)
			}
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	for _, depth := range depths {
		rs := runs[depth]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		median := rs[len(rs)/2]
		nsPerBlock := median.Nanoseconds() / nBlocks
		txPerSec := float64(nBlocks*blockTxs) / (float64(median.Nanoseconds()) / 1e9)
		b.ReportMetric(txPerSec, fmt.Sprintf("tx/s@depth%d", depth))
		recordCommitBench(b, commitBenchEntry{
			CRDT: true, Backend: peer.BackendDisk, PersistBlocks: true, Pipeline: depth,
			BlockTxs: blockTxs, Workers: 1,
			NsPerBlock: nsPerBlock, TxPerSec: txPerSec,
		}.obsSnapshot(lastPeers[depth]))
	}
}

// endorsedWideStream assembles nBlocks hash-chained blocks of txsPerBlock
// CRDT transactions cycling over nKeys distinct device keys, each reading
// padded to padBytes — a stream whose committed world state outgrows the
// LSM memtable (so it spills to sorted runs) and whose second pass over
// the keyspace re-reads every spilled document through the block cache.
func (f *commitFixture) endorsedWideStream(b *testing.B, nBlocks, txsPerBlock, nKeys, padBytes int) []*ledger.Block {
	b.Helper()
	creator, err := f.client.Identity.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	channelID := f.channels[0]
	chain, err := f.endorser.ChainOn(channelID)
	if err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("x", padBytes)
	assembler := orderer.NewAssembler(chain.Last())
	blocks := make([]*ledger.Block, 0, nBlocks)
	for blk := 0; blk < nBlocks; blk++ {
		txs := make([]*ledger.Transaction, txsPerBlock)
		for i := range txs {
			idx := blk*txsPerBlock + i
			txID := fmt.Sprintf("wide-%d-%d", blk, i)
			args := [][]byte{[]byte("record"),
				[]byte(fmt.Sprintf("wide-%04d", idx%nKeys)),
				[]byte(fmt.Sprintf("%s-%d", pad, idx))}
			resp, err := f.endorser.Endorse(peer.Proposal{
				TxID: txID, ChannelID: channelID, Chaincode: "bench", Args: args, Creator: creator,
			})
			if err != nil {
				b.Fatal(err)
			}
			txs[i] = &ledger.Transaction{
				ID: txID, ChannelID: channelID, Chaincode: "bench", Creator: creator, Args: args,
				RWSet:        resp.RWSet,
				Endorsements: []ledger.Endorsement{{Endorser: resp.Endorser, Signature: resp.Signature}},
			}
		}
		block, err := assembler.Assemble(orderer.Batch{Transactions: txs, Reason: orderer.CutMaxMessages})
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// BenchmarkCommitLSMCache drives the LSM backend with a committed dataset
// LARGER than its block cache, then with the cache comfortably oversized —
// the pair of BENCH_commit.json entries that prices cache pressure. The
// stream writes ~512 ten-KiB CRDT documents (spilling the 4 MiB memtable
// into sorted runs mid-stream, asserted via Stats), then revisits every
// key, so each merge re-reads its document through the cache: at 64 KiB
// the working set evicts constantly, at 64 MiB every block load after the
// first is a hit. One fresh peer and data directory per iteration.
func BenchmarkCommitLSMCache(b *testing.B) {
	const (
		nBlocks  = 32
		blockTxs = 32
		nKeys    = 512
		padBytes = 10 << 10
		workers  = 4
	)
	fix := newCommitFixture(b, true)
	blocks := fix.endorsedWideStream(b, nBlocks, blockTxs, nKeys, padBytes)
	for _, tc := range []struct {
		label      string
		cacheBytes int64
	}{
		{"cache-smaller-than-dataset", 64 << 10},
		{"cache-larger-than-dataset", 64 << 20},
	} {
		b.Run(tc.label, func(b *testing.B) {
			var total time.Duration
			var lastPeer *peer.Peer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := fix.newPeer(b, peer.CommitterConfig{
					Workers: workers, Backend: peer.BackendLSM, DataDir: b.TempDir(),
					PersistBlocks: peer.PersistBlocksOff, StateCacheBytes: tc.cacheBytes,
				})
				lastPeer = p
				b.StartTimer()
				start := time.Now()
				for _, blk := range blocks {
					res, err := p.CommitBlock(blk)
					if err != nil {
						b.Fatal(err)
					}
					if res.CommittedTx != blockTxs {
						b.Fatalf("block %d committed %d/%d", blk.Header.Number, res.CommittedTx, blockTxs)
					}
				}
				total += time.Since(start)
				b.StopTimer()
				st, ok := p.DB().Stats()
				if !ok {
					b.Fatal("LSM backend reported no stats")
				}
				if st.Flushes == 0 {
					b.Fatal("dataset never spilled the memtable: the benchmark is not exercising sorted runs")
				}
				if i == b.N-1 {
					b.ReportMetric(float64(st.Flushes), "flushes")
					b.ReportMetric(float64(st.CacheHits), "cache_hits")
					b.ReportMetric(float64(st.CacheMisses), "cache_misses")
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			nsPerBlock := total.Nanoseconds() / int64(b.N) / nBlocks
			txPerSec := float64(nBlocks*blockTxs) / (float64(total.Nanoseconds()) / float64(b.N) / 1e9)
			b.ReportMetric(txPerSec, "tx/s")
			recordCommitBench(b, commitBenchEntry{
				CRDT: true, Backend: peer.BackendLSM, CacheBytes: tc.cacheBytes,
				BlockTxs: blockTxs, Workers: workers,
				NsPerBlock: nsPerBlock, TxPerSec: txPerSec,
			}.obsSnapshot(lastPeer))
		})
	}
}

// BenchmarkCommitChannels is the multi-channel scaling benchmark: one
// pre-endorsed 100-transaction block per channel, committed on all
// channels CONCURRENTLY by one peer, at 1/2/4/8 channels. Workers is
// pinned to 1 so each channel's pipeline is serial — the measured speedup
// is pure channel parallelism (per-channel commit mutexes, nothing
// shared), the property the multi-channel runtime exists for. The
// headline metric is aggregate tx/s across channels; near-linear growth
// up to the core count is the expected shape.
func BenchmarkCommitChannels(b *testing.B) {
	const blockTxs = 100
	for _, nCh := range []int{1, 2, 4, 8} {
		ids := make([]string, nCh)
		for i := range ids {
			ids[i] = fmt.Sprintf("bench%d", i)
		}
		fix := newCommitFixtureChannels(b, true, ids...)
		blocks := make(map[string]*ledger.Block, nCh)
		for _, id := range ids {
			blocks[id] = fix.endorsedBlockOn(b, id, blockTxs)
		}
		b.Run(fmt.Sprintf("channels=%d", nCh), func(b *testing.B) {
			cfg := peer.CommitterConfig{Workers: 1}
			var total time.Duration
			var lastPeer *peer.Peer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := fix.newPeer(b, cfg)
				lastPeer = p
				b.StartTimer()
				start := time.Now()
				var wg sync.WaitGroup
				errCh := make(chan error, nCh)
				for _, id := range ids {
					wg.Add(1)
					go func(id string) {
						defer wg.Done()
						res, err := p.CommitBlockOn(id, blocks[id])
						if err != nil {
							errCh <- err
							return
						}
						if res.CommittedTx != blockTxs {
							errCh <- fmt.Errorf("channel %s committed %d/%d", id, res.CommittedTx, blockTxs)
						}
					}(id)
				}
				wg.Wait()
				total += time.Since(start)
				close(errCh)
				for err := range errCh {
					b.Fatal(err)
				}
			}
			nsPerRound := total.Nanoseconds() / int64(b.N)
			aggTxPerSec := float64(nCh*blockTxs) / (float64(nsPerRound) / 1e9)
			b.ReportMetric(aggTxPerSec, "tx/s")
			recordCommitBench(b, commitBenchEntry{
				CRDT: true, Backend: peer.BackendMemory, Channels: nCh,
				BlockTxs: blockTxs, Workers: 1,
				NsPerBlock: nsPerRound, TxPerSec: aggTxPerSec,
			}.obsSnapshot(lastPeer))
		})
	}
}
