package channel

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"fabriccrdt/internal/statedb"
)

// State backend names for CommitterConfig.Backend.
const (
	// BackendMemory is the trivial single-lock in-memory map.
	BackendMemory = "memory"
	// BackendDisk is the persistent append-only-log backend; requires
	// DataDir. A peer reopening the same DataDir resumes every channel
	// from its last committed block instead of replaying the chain.
	BackendDisk = "disk"
	// BackendLSM is the log-structured persistent backend (memtable +
	// sorted runs + bloom filters + block cache, docs/STATEDB.md);
	// requires DataDir. Unlike BackendDisk it never rebuilds a full
	// in-memory index — open cost and resident memory stay independent of
	// the keyspace, so world state can outgrow RAM.
	BackendLSM = "lsm"
)

// Block-body persistence modes for CommitterConfig.PersistBlocks.
const (
	// PersistBlocksAuto (the zero value) persists block bodies whenever
	// the backend is durable (BackendDisk or BackendLSM) — the ledger is
	// the recovery root — and skips them on in-memory backends, which have
	// nowhere durable to put them. A durable store that already holds
	// committed state but no block log (created before block persistence,
	// or with it off) is adopted as-is: it keeps resuming checkpoint-only
	// rather than being refused.
	PersistBlocksAuto = ""
	// PersistBlocksOn requires the durable block store; it is only valid
	// with BackendDisk or BackendLSM, and a store whose committed bodies
	// are missing is refused rather than adopted.
	PersistBlocksOn = "on"
	// PersistBlocksOff keeps the state-checkpoint-only durability of the
	// disk backend: a restarted peer resumes committing but cannot serve
	// pre-restart blocks or rebuild its world state from the chain.
	PersistBlocksOff = "off"
)

// CommitterConfig tunes the staged commit pipeline and the world-state
// backend behind it (DESIGN.md §4, §5). One configuration applies to every
// channel a peer joins; each channel gets its own backend instance (and,
// for the disk backend, its own subdirectory under DataDir).
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
	// Backend names the statedb backend: BackendMemory, BackendDisk or
	// BackendLSM. Empty means BackendMemory. Unknown names fail
	// construction.
	Backend string
	// DataDir is the durable backends' data directory (required for
	// BackendDisk and BackendLSM, unused otherwise). Each peer needs its
	// own directory; fabricnet derives per-peer subdirectories
	// automatically. Each channel persists under DataDir/<channel-ID>.
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
	// (the default: on with BackendDisk, off otherwise), PersistBlocksOn
	// (BackendDisk required) and PersistBlocksOff (state checkpoint only —
	// the pre-block-store behaviour). See DESIGN.md §8 and
	// docs/PERSISTENCE.md.
	PersistBlocks string
	// SyncEveryApply makes the durable backends fsync their state log
	// (BackendDisk) or write-ahead log (BackendLSM) — and the block store,
	// when PersistBlocks is on — after every committed block, closing the
	// power-loss durability window at the cost of fsyncs per block
	// (DESIGN.md §4). Durable backends only. This is the configuration
	// where the async commit pipeline pays off even on a single core:
	// block N's fsync wait is hidden behind block N+1's decode +
	// endorsement validation (DESIGN.md §7).
	SyncEveryApply bool
}

// durableBackend reports whether the configured state backend persists to
// DataDir (and so has somewhere for the block store to live beside it).
func (c CommitterConfig) durableBackend() bool {
	return c.Backend == BackendDisk || c.Backend == BackendLSM
}

// blockPersistence resolves the PersistBlocks knob against the selected
// backend.
func (c CommitterConfig) blockPersistence() (bool, error) {
	switch c.PersistBlocks {
	case PersistBlocksAuto:
		return c.durableBackend(), nil
	case PersistBlocksOn:
		if !c.durableBackend() {
			return false, fmt.Errorf("PersistBlocks %q requires the %s or %s backend (got %q): block bodies persist beside the state store", PersistBlocksOn, BackendDisk, BackendLSM, c.Backend)
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

// rejectLegacyStore refuses a data directory holding a store in the
// pre-multi-channel layout (state files directly under DataDir, not under
// a per-channel subdirectory). Opening past it would silently start every
// channel fresh — abandoning the committed state AND the durable
// duplicate-screening markers — so, like a damaged checkpoint, it is an
// error rather than a quiet restart. The record format itself is
// unchanged: moving the old store into DataDir/<its-channel-ID>/ migrates
// it.
func rejectLegacyStore(dataDir string) error {
	for _, name := range []string{"state.log", "state.snap"} {
		if _, err := os.Stat(filepath.Join(dataDir, name)); err == nil {
			return fmt.Errorf("found a pre-multi-channel store (%s) directly under %s: this version keeps each channel under %s/<channel-ID>; move the old store into its channel's subdirectory (e.g. %s) or use a fresh directory",
				name, dataDir, dataDir, filepath.Join(dataDir, DefaultChannel))
		}
	}
	return nil
}

// newStateDB builds one channel's world state as named by the committer
// configuration. The disk backend stores each channel under its own
// DataDir/<channel-ID> subdirectory so channels never share a log.
// beforeCompact (may be nil) is handed to the disk backend so it can
// fsync the channel's block store before making a state snapshot durable.
func newStateDB(channelID string, c CommitterConfig, beforeCompact func() error) (*statedb.DB, error) {
	switch c.Backend {
	case "", BackendMemory:
		return statedb.New(), nil
	case BackendDisk:
		if c.DataDir == "" {
			return nil, errors.New("disk state backend requires CommitterConfig.DataDir")
		}
		if err := rejectLegacyStore(c.DataDir); err != nil {
			return nil, err
		}
		return statedb.NewDiskWithOptions(filepath.Join(c.DataDir, channelID),
			statedb.DiskOptions{SyncEveryApply: c.SyncEveryApply, BeforeCompact: beforeCompact})
	case BackendLSM:
		if c.DataDir == "" {
			return nil, errors.New("lsm state backend requires CommitterConfig.DataDir")
		}
		if err := rejectLegacyStore(c.DataDir); err != nil {
			return nil, err
		}
		return statedb.NewLSMWithOptions(filepath.Join(c.DataDir, channelID),
			statedb.LSMOptions{
				CacheBytes:     c.StateCacheBytes,
				SyncEveryApply: c.SyncEveryApply,
				BeforeCompact:  beforeCompact,
			})
	default:
		return nil, fmt.Errorf("unknown state backend %q (want %s, %s or %s)",
			c.Backend, BackendMemory, BackendDisk, BackendLSM)
	}
}
