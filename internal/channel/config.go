package channel

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"

	"fabriccrdt/internal/statedb"
)

// State backend names for CommitterConfig.Backend.
const (
	// BackendMemory is the trivial single-lock in-memory map.
	BackendMemory = "memory"
	// BackendLSM is the persistent log-structured backend (write-ahead log
	// + memtable + sorted runs + bloom filters + block cache,
	// docs/STATEDB.md); requires DataDir. A peer reopening the same DataDir
	// resumes every channel from its last committed block instead of
	// replaying the chain. Open cost and resident memory stay independent
	// of the keyspace, so world state can outgrow RAM.
	BackendLSM = "lsm"
)

// Block-body persistence modes for CommitterConfig.PersistBlocks.
const (
	// PersistBlocksAuto (the zero value) persists block bodies whenever
	// the backend is durable (BackendLSM) — the ledger is the recovery
	// root — and skips them on the in-memory backend, which has nowhere
	// durable to put them. Like PersistBlocksOn, it refuses a store that
	// holds committed state but no block log (one created with
	// PersistBlocksOff): reopen such a store with PersistBlocksOff.
	PersistBlocksAuto = ""
	// PersistBlocksOn requires the durable block store; it is only valid
	// with BackendLSM.
	PersistBlocksOn = "on"
	// PersistBlocksOff keeps state-checkpoint-only durability: a restarted
	// peer resumes committing but cannot serve pre-restart blocks or
	// rebuild its world state from the chain.
	PersistBlocksOff = "off"
)

// CommitterConfig tunes the staged commit pipeline and the world-state
// backend behind it (DESIGN.md §4, §5). One configuration applies to every
// channel a peer joins; each channel gets its own backend instance (and,
// for the LSM backend, its own subdirectory under DataDir).
type CommitterConfig struct {
	// Workers bounds the endorsement-validation worker pool and, unless
	// EngineOptions.Workers overrides it, the merge engine's key-group
	// parallelism — per channel. 1 = serial. 0 = adaptive: the peer derives
	// the count from runtime.NumCPU() divided across its active channels
	// (AdaptiveWorkers). Validation codes, world state and persisted CRDT
	// documents are identical at every setting.
	Workers int
	// Pipeline is the async commit pipeline depth per (peer, channel)
	// deliver loop: how many delivered blocks may sit decoded and
	// endorsement-validated ahead of the serialized finalize stage
	// (dedup/merge/mvcc/apply/append). 0 = synchronous (each block fully
	// commits before the next is touched); N >= 1 overlaps the stateless
	// prepare work of blocks N+1..N+depth with the current block's commit
	// (DESIGN.md §7). Commit outcomes are byte-identical at every depth;
	// only wall-clock behavior changes. Ignored by direct CommitBlockOn
	// calls — it configures deliver-loop drivers (fabricnet, and any
	// embedder of Peer.CommitPipeline).
	Pipeline int
	// Backend names the statedb backend: BackendMemory or BackendLSM.
	// Empty means BackendMemory. Unknown names fail construction.
	Backend string
	// DataDir is the durable backend's data directory (required for
	// BackendLSM, unused otherwise). Each peer needs its own directory;
	// fabricnet derives per-peer subdirectories automatically. Each
	// channel persists under DataDir/<channel-ID>.
	DataDir string
	// StateCacheBytes bounds the LSM backend's block cache (BackendLSM
	// only; 0 = the statedb default, currently 32 MiB). The cache holds
	// decoded run blocks for point reads and range scans; sizing it below
	// the hot set trades read latency for resident memory
	// (docs/STATEDB.md).
	StateCacheBytes int64
	// PersistBlocks controls the durable block store
	// (internal/blockstore): committed block bodies, validation codes
	// included, appended under DataDir/<channel-ID>/blocks in the finalize
	// stage just before the state apply — making the ledger, not the state
	// snapshot, the recovery root. A restarted peer can then serve its
	// full history to lagging peers (Peer.SyncFrom) and rebuild its world
	// state from block 0 (Peer.RebuildState). Values: PersistBlocksAuto
	// (the default: on with BackendLSM, off otherwise), PersistBlocksOn
	// (BackendLSM required) and PersistBlocksOff (state checkpoint only).
	// See DESIGN.md §8 and docs/PERSISTENCE.md.
	PersistBlocks string
	// SyncEveryApply makes the LSM backend fsync its write-ahead log — and
	// the block store, when PersistBlocks is on — after every committed
	// block, closing the power-loss durability window at the cost of
	// fsyncs per block (DESIGN.md §4). BackendLSM only. This is the
	// configuration where the async commit pipeline pays off even on a
	// single core: block N's fsync wait is hidden behind block N+1's
	// decode + endorsement validation (DESIGN.md §7).
	SyncEveryApply bool
}

// blockPersistence resolves the PersistBlocks knob against the selected
// backend.
func (c CommitterConfig) blockPersistence() (bool, error) {
	switch c.PersistBlocks {
	case PersistBlocksAuto:
		return c.Backend == BackendLSM, nil
	case PersistBlocksOn:
		if c.Backend != BackendLSM {
			return false, fmt.Errorf("PersistBlocks %q requires the %s backend (got %q): block bodies persist beside the state store", PersistBlocksOn, BackendLSM, c.Backend)
		}
		return true, nil
	case PersistBlocksOff:
		return false, nil
	default:
		return false, fmt.Errorf("unknown PersistBlocks %q (want %q, %q or %q)", c.PersistBlocks, PersistBlocksAuto, PersistBlocksOn, PersistBlocksOff)
	}
}

// AdaptiveWorkers is the commit-pipeline worker count used when
// CommitterConfig.Workers is 0: the host's CPUs divided evenly across the
// peer's active channels, never below 1. N channels committing in parallel
// then share the machine instead of each assuming it owns every core
// (DESIGN.md §6).
func AdaptiveWorkers(activeChannels int) int {
	if activeChannels < 1 {
		activeChannels = 1
	}
	w := runtime.NumCPU() / activeChannels
	if w < 1 {
		return 1
	}
	return w
}

// newStateDB builds one channel's world state as named by the committer
// configuration. The LSM backend stores each channel under its own
// DataDir/<channel-ID> subdirectory so channels never share a log.
// beforeCompact (may be nil) is handed to the LSM backend so it can fsync
// the channel's block store before a flush or compaction makes state
// durable.
func newStateDB(channelID string, c CommitterConfig, beforeCompact func() error) (*statedb.DB, error) {
	switch c.Backend {
	case "", BackendMemory:
		return statedb.New(), nil
	case BackendLSM:
		if c.DataDir == "" {
			return nil, errors.New("lsm state backend requires CommitterConfig.DataDir")
		}
		return statedb.NewLSMWithOptions(filepath.Join(c.DataDir, channelID),
			statedb.LSMOptions{
				CacheBytes:     c.StateCacheBytes,
				SyncEveryApply: c.SyncEveryApply,
				BeforeCompact:  beforeCompact,
			})
	default:
		return nil, fmt.Errorf("unknown state backend %q (want %s or %s)",
			c.Backend, BackendMemory, BackendLSM)
	}
}
