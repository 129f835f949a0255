package statedb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fabriccrdt/internal/rwset"
)

// lsmBackend is the log-structured persistent backend: state lives in an
// in-memory memtable plus immutable sorted run files, so neither open
// cost nor resident memory scales with the keyspace. Only the manifest, each run's footer/index/filter
// and the memtable are resident; data blocks are fetched on demand
// through a byte-budgeted LRU cache.
//
// On-disk layout inside the data directory:
//
//	wal.log        batch records appended since the last flush (framed
//	               batch encoding, see lsm_wal.go)
//	run-NNNNNN.run immutable sorted runs (see lsm_run.go)
//	MANIFEST       one framed record naming the live runs plus the
//	               flushed height and live-key count
//
// Writes append to the WAL and the memtable; when the memtable outgrows
// MemtableBytes it is flushed: sorted into a new run (temp + fsync +
// rename), the manifest is atomically rewritten to include it, and the
// WAL is truncated. When the run count exceeds CompactRuns a background
// goroutine k-way merges every current run into one (newest value per
// key wins, tombstones dropped) and swaps the manifest.
//
// Crash discipline: one Apply appends exactly one WAL frame, so a crash leaves at most a torn tail, truncated on
// open. Runs and the manifest are fsynced before the rename installing
// them, so a manifest-listed run is always intact; a run without a
// manifest reference is an orphan from a crash mid-flush, removed on
// open (its batches are still in the WAL). A stale WAL — crash between
// manifest install and WAL truncate — replays idempotently: re-applying
// a batch already in a run reproduces the same values and the same
// live-key count.
//
// Durability ordering vs the block log: Options.BeforeCompact runs
// before a flush or compaction installs a manifest (the point where
// state becomes durable), so the durable state can never get ahead of
// the durable chain.
type lsmBackend struct {
	dir  string
	opts LSMOptions

	mu       sync.RWMutex
	mem      map[string]runEntry // memtable, keyed by internal key
	memBytes int64
	runs     []*runReader // oldest first
	height   rwset.Version
	liveKeys int64 // live data keys, maintained incrementally (KeyCount is O(1))
	wal      *os.File
	walSize  int64
	nextSeq  uint64
	closed   bool
	// walBroken disables WAL appends after a failed one (the file may end
	// in a torn frame); flushes are disabled too, since flushing batches
	// the WAL never saw would let a later crash roll durable state back
	// below a run the manifest already references.
	walBroken bool
	// flushBroken stops retrying a failed flush on every block.
	flushBroken bool
	// compactBroken stops launching compactions after one failed.
	compactBroken bool
	compacting    bool
	// gen is bumped by Reset so an in-flight compaction from the old
	// contents abandons itself instead of installing stale runs.
	gen       uint64
	compactWG sync.WaitGroup

	// flushedHeight/flushedLiveKeys are what the manifest records: the
	// state as of the last flush (the WAL replays the rest on open).
	flushedHeight   rwset.Version
	flushedLiveKeys int64

	cache *blockCache

	// errMu guards applyErr separately from mu: reads holding only the
	// RLock must still be able to record block I/O errors.
	errMu    sync.Mutex
	applyErr error

	// I/O accounting surfaced via Stats (mu held for writes).
	appends     int64
	fsyncs      int64
	flushes     int64
	compactions int64
}

// LSMOptions tunes an LSM backend.
type LSMOptions struct {
	// MemtableBytes flushes the memtable to a sorted run once its resident
	// size exceeds this; <= 0 selects the 4 MiB default.
	MemtableBytes int64
	// CacheBytes budgets the decoded-block LRU cache; <= 0 selects the
	// 32 MiB default.
	CacheBytes int64
	// BlockBytes bounds one data block's payload within a run; <= 0
	// selects the 16 KiB default.
	BlockBytes int
	// CompactRuns launches a background full merge when the run count
	// exceeds this; <= 0 selects the default of 4.
	CompactRuns int
	// SyncEveryApply fsyncs the WAL after every batch. Off (the default),
	// batches reach the OS page cache on Apply and the disk on Close or
	// flush: a process crash loses nothing, a host power loss may lose the
	// most recent batches (never corrupting earlier ones).
	SyncEveryApply bool
	// BeforeCompact, when set, runs right before a flush or compaction
	// installs a manifest — the point where state becomes durable. The
	// channel runtime uses it to fsync the peer's block store first. An
	// error aborts the flush/compaction; the WAL stays authoritative.
	BeforeCompact func() error
}

const (
	walFileName      = "wal.log"
	manifestFileName = "MANIFEST"

	defaultMemtableBytes = 4 << 20
	defaultCacheBytes    = 32 << 20
	defaultBlockBytes    = 16 << 10
	defaultCompactRuns   = 4

	manifestVersion = 1
)

func (o LSMOptions) normalized() LSMOptions {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = defaultMemtableBytes
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = defaultCacheBytes
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = defaultBlockBytes
	}
	if o.CompactRuns <= 0 {
		o.CompactRuns = defaultCompactRuns
	}
	return o
}

// Internal keys give data and metadata one shared sorted keyspace inside
// memtables and runs: a one-byte namespace prefix, 'd' or 'm'.
func dataKey(key string) string { return "d" + key }
func metaKey(key string) string { return "m" + key }

// dataKeyEnd maps a Range end bound to internal-key space; the empty end
// ("to the last key") becomes "e", which every data key sorts below.
func dataKeyEnd(end string) string {
	if end == "" {
		return "e"
	}
	return "d" + end
}

// OpenLSM opens (creating if needed) an LSM backend rooted at dir. The
// returned backend satisfies Durable.
func OpenLSM(dir string, opts LSMOptions) (Backend, error) {
	return openLSM(dir, opts)
}

// NewLSM returns a world state persisted under dir on the LSM backend
// with default options.
func NewLSM(dir string) (*DB, error) {
	return NewLSMWithOptions(dir, LSMOptions{})
}

// NewLSMWithOptions is NewLSM with explicit LSMOptions.
func NewLSMWithOptions(dir string, opts LSMOptions) (*DB, error) {
	b, err := openLSM(dir, opts)
	if err != nil {
		return nil, err
	}
	return NewWithBackend(b), nil
}

func openLSM(dir string, opts LSMOptions) (*lsmBackend, error) {
	if dir == "" {
		return nil, errors.New("statedb: LSM backend requires a data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statedb: creating data dir: %w", err)
	}
	// Refuse a directory holding a store of the removed log+snapshot
	// ("disk") backend: opening it as LSM would silently present an empty
	// state while the real one sits in files this backend never reads.
	for _, name := range []string{"state.log", "state.snap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("statedb: %s holds a store of the removed disk backend (%s exists); refusing to open it as LSM (with an intact block log beside it, removing state.log and state.snap lets the channel rebuild its state from the block log)", dir, name)
		}
	}
	b := &lsmBackend{
		dir:  dir,
		opts: opts.normalized(),
		mem:  make(map[string]runEntry),
	}
	b.cache = newBlockCache(b.opts.CacheBytes)
	if err := b.loadManifest(); err != nil {
		return nil, err
	}
	if err := b.removeOrphans(); err != nil {
		b.closeRuns()
		return nil, err
	}
	if err := b.openAndReplayWAL(); err != nil {
		b.closeRuns()
		return nil, err
	}
	return b, nil
}

func (b *lsmBackend) closeRuns() {
	for _, r := range b.runs {
		r.close()
	}
}

// loadManifest reads MANIFEST and opens every run it lists. A missing
// manifest means a fresh (or never-flushed) store; a corrupt one — or a
// missing/corrupt listed run — is refused, since runs and manifests are
// fsynced before installation and a legitimate crash cannot damage them.
func (b *lsmBackend) loadManifest() error {
	path := filepath.Join(b.dir, manifestFileName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b.nextSeq = 1
		return nil
	}
	if err != nil {
		return fmt.Errorf("statedb: reading manifest: %w", err)
	}
	var payloads [][]byte
	good, err := scanFrames(bytes.NewReader(raw), func(p []byte) error {
		payloads = append(payloads, p)
		return nil
	})
	if err != nil || good != int64(len(raw)) || len(payloads) != 1 {
		return fmt.Errorf("statedb: corrupt manifest %s", path)
	}
	height, liveKeys, seqs, err := decodeManifest(payloads[0])
	if err != nil {
		return fmt.Errorf("statedb: corrupt manifest %s: %w", path, err)
	}
	for _, seq := range seqs {
		r, err := openRun(filepath.Join(b.dir, runFileName(seq)), seq)
		if err != nil {
			b.closeRuns()
			return err
		}
		b.runs = append(b.runs, r)
		if seq >= b.nextSeq {
			b.nextSeq = seq + 1
		}
	}
	if b.nextSeq == 0 {
		b.nextSeq = 1
	}
	b.height, b.liveKeys = height, liveKeys
	b.flushedHeight, b.flushedLiveKeys = height, liveKeys
	return nil
}

// removeOrphans deletes leftover temp files and run files the manifest
// does not reference — debris from a crash between writing a run and
// installing the manifest (the WAL still holds those batches) or from an
// abandoned compaction.
func (b *lsmBackend) removeOrphans() error {
	listed := make(map[uint64]bool, len(b.runs))
	for _, r := range b.runs {
		listed[r.seq] = true
	}
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("statedb: listing data dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
		case strings.HasPrefix(name, "run-") && strings.HasSuffix(name, ".run"):
			seq, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "run-"), ".run"), 10, 64)
			if perr != nil || listed[seq] {
				continue
			}
			if seq >= b.nextSeq {
				b.nextSeq = seq + 1 // never reuse an orphan's sequence
			}
		default:
			continue
		}
		if err := os.Remove(filepath.Join(b.dir, name)); err != nil {
			return fmt.Errorf("statedb: removing orphan %s: %w", name, err)
		}
	}
	return nil
}

// openAndReplayWAL opens wal.log for append, replays every intact frame
// into the memtable and truncates a torn or corrupt tail (the one crash
// shape a single-frame append can leave).
func (b *lsmBackend) openAndReplayWAL() error {
	path := filepath.Join(b.dir, walFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("statedb: opening WAL: %w", err)
	}
	good, err := scanFrames(bufio.NewReader(f), func(payload []byte) error {
		updates, meta, height, derr := decodeBatch(payload)
		if derr != nil {
			return fmt.Errorf("record decode: %w", derr)
		}
		b.applyBatchLocked(updates, meta, height)
		return nil
	})
	if err != nil {
		if terr := f.Truncate(good); terr != nil {
			f.Close()
			return fmt.Errorf("statedb: truncating corrupt WAL tail: %w", terr)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("statedb: seeking WAL: %w", err)
	}
	b.wal = f
	b.walSize = good
	return nil
}

// Manifest payload encoding (framed like every other statedb record):
//
//	u8  manifest format version (1)
//	u64 flushed height.BlockNum, u64 height.TxNum
//	u64 live data-key count as of that height
//	u32 run count, then u64 sequence per run, oldest first (ascending)

func encodeManifest(height rwset.Version, liveKeys int64, seqs []uint64) []byte {
	buf := make([]byte, 0, 1+16+8+4+8*len(seqs))
	buf = append(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, height.BlockNum)
	buf = binary.LittleEndian.AppendUint64(buf, height.TxNum)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(liveKeys))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seqs)))
	for _, s := range seqs {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	return buf
}

func decodeManifest(buf []byte) (rwset.Version, int64, []uint64, error) {
	d := &decoder{buf: buf}
	var height rwset.Version
	ver := d.u8()
	if d.err == nil && ver != manifestVersion {
		return height, 0, nil, fmt.Errorf("unsupported manifest version %d", ver)
	}
	height.BlockNum = d.u64()
	height.TxNum = d.u64()
	liveKeys := int64(d.u64())
	n := d.u32()
	if d.err == nil && int64(n)*8 > int64(len(buf)) {
		return rwset.Version{}, 0, nil, fmt.Errorf("manifest claims %d runs in %d bytes", n, len(buf))
	}
	seqs := make([]uint64, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		s := d.u64()
		if d.err == nil && len(seqs) > 0 && s <= seqs[len(seqs)-1] {
			return rwset.Version{}, 0, nil, errors.New("manifest run sequences are not ascending")
		}
		seqs = append(seqs, s)
	}
	if d.err != nil {
		return rwset.Version{}, 0, nil, d.err
	}
	if len(d.buf) != d.off {
		return rwset.Version{}, 0, nil, fmt.Errorf("manifest has %d trailing bytes", len(d.buf)-d.off)
	}
	return height, liveKeys, seqs, nil
}

// writeManifestLocked atomically replaces MANIFEST (temp + fsync +
// rename) with the given run list and flush point (mu held).
func (b *lsmBackend) writeManifestLocked(height rwset.Version, liveKeys int64, seqs []uint64) error {
	frame := frameRecord(encodeManifest(height, liveKeys, seqs))
	tmp := filepath.Join(b.dir, manifestFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("statedb: creating manifest temp: %w", err)
	}
	_, err = f.Write(frame)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statedb: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(b.dir, manifestFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statedb: installing manifest: %w", err)
	}
	b.fsyncs++
	return nil
}

// loadBlock fetches one data block through the LRU cache.
func (b *lsmBackend) loadBlock(r *runReader, i int) ([]runEntry, error) {
	off := r.index[i].off
	if entries, ok := b.cache.get(r.seq, off); ok {
		return entries, nil
	}
	entries, err := r.readBlock(i)
	if err != nil {
		return nil, err
	}
	b.cache.put(r.seq, off, entries)
	return entries, nil
}

// lookupLocked finds the newest record for an internal key: memtable
// first, then runs newest to oldest, each consulted only when its bloom
// filter cannot rule the key out. The bool reports whether any record —
// live or tombstone — exists. Read errors are recorded (fail-stop
// surface via Err/Close) and report "absent".
func (b *lsmBackend) lookupLocked(ikey string) (runEntry, bool) {
	if e, ok := b.mem[ikey]; ok {
		return e, true
	}
	h := bloomKeyHash(ikey)
	for i := len(b.runs) - 1; i >= 0; i-- {
		r := b.runs[i]
		if !r.filter.mayContain(h) {
			continue
		}
		e, ok, err := r.get(ikey, b.loadBlock)
		if err != nil {
			b.recordErr(err)
			return runEntry{}, false
		}
		if ok {
			return e, true
		}
	}
	return runEntry{}, false
}

func (b *lsmBackend) Get(key string) (VersionedValue, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.lookupLocked(dataKey(key))
	if !ok || e.tombstone {
		return VersionedValue{}, false
	}
	return VersionedValue{Value: e.value, Version: e.version}, true
}

func (b *lsmBackend) GetMeta(key string) []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.lookupLocked(metaKey(key))
	if !ok || e.tombstone {
		return nil
	}
	return e.value
}

// memPut inserts or replaces one memtable entry, keeping byte accounting.
func (b *lsmBackend) memPut(e runEntry) {
	if old, ok := b.mem[e.ikey]; ok {
		b.memBytes -= int64(runEntrySize(old))
	}
	b.mem[e.ikey] = e
	b.memBytes += int64(runEntrySize(e))
}

// applyBatchLocked applies one batch to the memtable, maintaining the
// live-key count by probing for each key's prior existence (memtable,
// then bloom-filtered runs). Re-applying a batch already flushed into a
// run is idempotent — the probe sees the flushed record, so the count
// does not drift; that is what makes a stale WAL harmless. Called with
// mu held (or during open, before the backend is shared).
func (b *lsmBackend) applyBatchLocked(updates map[string]Update, meta map[string][]byte, height rwset.Version) {
	for key, u := range updates {
		ik := dataKey(key)
		prev, found := b.lookupLocked(ik)
		existed := found && !prev.tombstone
		if u.IsDelete {
			if existed {
				b.liveKeys--
			}
			b.memPut(runEntry{ikey: ik, tombstone: true, version: u.Version})
			continue
		}
		if !existed {
			b.liveKeys++
		}
		b.memPut(runEntry{ikey: ik, value: u.Value, version: u.Version})
	}
	for key, v := range meta {
		b.memPut(runEntry{ikey: metaKey(key), value: v})
	}
	b.height = height
}

// Apply durably appends the batch to the WAL, applies it to the memtable
// and flushes/compacts as thresholds demand. A write failure is recorded
// (Err/Close), the in-memory update still happens, and the broken path
// is fail-stopped.
func (b *lsmBackend) Apply(updates map[string]Update, meta map[string][]byte, height rwset.Version) {
	payload := encodeBatch(updates, meta, height)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.closed:
		b.recordErr(ErrClosed)
	case b.walBroken:
		// Write path disabled by an earlier failed append.
	default:
		if len(payload) > maxRecordBytes {
			b.walBroken = true
			b.recordErr(fmt.Errorf("statedb: batch record of %d bytes exceeds the %d-byte record limit", len(payload), maxRecordBytes))
			break
		}
		n, err := b.wal.Write(frameRecord(payload))
		b.walSize += int64(n)
		if err != nil {
			b.walBroken = true
			b.recordErr(fmt.Errorf("statedb: appending to WAL: %w", err))
		} else {
			b.appends++
			if b.opts.SyncEveryApply {
				if err := b.wal.Sync(); err != nil {
					b.walBroken = true
					b.recordErr(err)
				} else {
					b.fsyncs++
				}
			}
		}
	}
	b.applyBatchLocked(updates, meta, height)
	if !b.closed && !b.walBroken && !b.flushBroken && b.memBytes > b.opts.MemtableBytes {
		if err := b.flushLocked(); err != nil {
			b.flushBroken = true
			b.recordErr(err)
		}
	}
	b.maybeCompactLocked()
}

// sortedMemEntries snapshots the memtable as a sorted entry slice.
func sortedMemEntries(mem map[string]runEntry) []runEntry {
	entries := make([]runEntry, 0, len(mem))
	for _, e := range mem {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ikey < entries[j].ikey })
	return entries
}

// flushLocked writes the memtable as a new sorted run, installs a
// manifest referencing it and truncates the WAL (mu held). Order
// matters: run fsync+rename, BeforeCompact hook, manifest install (the
// durability point), WAL truncate. A crash anywhere leaves either the
// old manifest + full WAL (the run is an orphan) or the new manifest +
// stale WAL (replayed idempotently).
func (b *lsmBackend) flushLocked() error {
	if len(b.mem) == 0 {
		return nil
	}
	seq := b.nextSeq
	path := filepath.Join(b.dir, runFileName(seq))
	if err := writeRun(path, sortedMemEntries(b.mem), b.opts.BlockBytes); err != nil {
		return err
	}
	b.fsyncs++ // writeRun's temp-file Sync
	fail := func(err error) error {
		os.Remove(path)
		return err
	}
	if b.opts.BeforeCompact != nil {
		if err := b.opts.BeforeCompact(); err != nil {
			return fail(fmt.Errorf("statedb: pre-flush hook: %w", err))
		}
	}
	r, err := openRun(path, seq)
	if err != nil {
		return fail(err)
	}
	seqs := make([]uint64, 0, len(b.runs)+1)
	for _, old := range b.runs {
		seqs = append(seqs, old.seq)
	}
	seqs = append(seqs, seq)
	if err := b.writeManifestLocked(b.height, b.liveKeys, seqs); err != nil {
		r.close()
		return fail(err)
	}
	b.nextSeq++
	b.runs = append(b.runs, r)
	b.flushedHeight, b.flushedLiveKeys = b.height, b.liveKeys
	b.mem = make(map[string]runEntry)
	b.memBytes = 0
	b.flushes++
	// The flushed batches are durable in the run; empty the WAL. If the
	// truncate fails the WAL goes stale permanently, so fail-stop both
	// log paths: appends (torn state) and flushes (a later flush-without-
	// WAL-coverage could make state diverge from any applied prefix).
	if err := b.wal.Truncate(0); err != nil {
		b.walBroken, b.flushBroken = true, true
		b.recordErr(fmt.Errorf("statedb: truncating WAL after flush: %w", err))
	} else if _, err := b.wal.Seek(0, io.SeekStart); err != nil {
		b.walBroken, b.flushBroken = true, true
		b.recordErr(fmt.Errorf("statedb: rewinding WAL after flush: %w", err))
	} else {
		b.walSize = 0
		// An emptied WAL has no torn tail: the append path is clean again.
		b.walBroken = false
	}
	return nil
}

// maybeCompactLocked launches one background compaction when the run
// count exceeds the threshold (mu held). The goroutine merges a captured
// snapshot of the current runs — immutable files, read without the lock —
// and installs the result under the lock, abandoning itself if a Reset
// or Close superseded it.
func (b *lsmBackend) maybeCompactLocked() {
	if b.compacting || b.closed || b.compactBroken || len(b.runs) <= b.opts.CompactRuns {
		return
	}
	b.compacting = true
	captured := append([]*runReader(nil), b.runs...)
	seq := b.nextSeq
	b.nextSeq++
	gen := b.gen
	b.compactWG.Add(1)
	go b.compactRuns(captured, seq, gen)
}

// mergeRunsToFile k-way merges the captured runs (newest wins) into one
// run at path, dropping tombstones — the captured set is the complete
// run list at launch, so nothing older can resurface. Reads bypass the
// block cache: a sequential merge would only evict hot blocks.
func (b *lsmBackend) mergeRunsToFile(runs []*runReader, path string) error {
	rawLoad := func(r *runReader, i int) ([]runEntry, error) { return r.readBlock(i) }
	sources := make([]entrySource, 0, len(runs))
	for i := len(runs) - 1; i >= 0; i-- { // newest first
		it, err := newRunIter(runs[i], "", "", rawLoad)
		if err != nil {
			return err
		}
		sources = append(sources, it)
	}
	var merged []runEntry
	err := mergeSources(sources, func(e runEntry) error {
		if !e.tombstone {
			merged = append(merged, e)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return writeRun(path, merged, b.opts.BlockBytes)
}

// compactRuns is the background compaction body.
func (b *lsmBackend) compactRuns(captured []*runReader, seq uint64, gen uint64) {
	defer b.compactWG.Done()
	path := filepath.Join(b.dir, runFileName(seq))
	mergeErr := b.mergeRunsToFile(captured, path)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.compacting = false
	if b.closed || b.gen != gen {
		os.Remove(path) // Reset/Close superseded this work
		return
	}
	abort := func(err error) {
		os.Remove(path)
		b.compactBroken = true
		b.recordErr(err)
	}
	if mergeErr != nil {
		abort(mergeErr)
		return
	}
	merged, err := openRun(path, seq)
	if err != nil {
		abort(err)
		return
	}
	if b.opts.BeforeCompact != nil {
		if err := b.opts.BeforeCompact(); err != nil {
			merged.close()
			abort(fmt.Errorf("statedb: pre-compaction hook: %w", err))
			return
		}
	}
	// Runs flushed since launch sit after the captured prefix; keep them.
	remaining := b.runs[len(captured):]
	seqs := make([]uint64, 0, 1+len(remaining))
	seqs = append(seqs, seq)
	for _, r := range remaining {
		seqs = append(seqs, r.seq)
	}
	if err := b.writeManifestLocked(b.flushedHeight, b.flushedLiveKeys, seqs); err != nil {
		merged.close()
		abort(err)
		return
	}
	b.fsyncs++ // the merged run's temp-file Sync in writeRun
	b.runs = append([]*runReader{merged}, remaining...)
	oldSeqs := make(map[uint64]bool, len(captured))
	for _, r := range captured {
		oldSeqs[r.seq] = true
		if err := r.close(); err != nil {
			b.recordErr(err)
		}
		if err := os.Remove(filepath.Join(b.dir, runFileName(r.seq))); err != nil {
			b.recordErr(err)
		}
	}
	b.cache.purge(oldSeqs)
	b.compactions++
}

// memRangeLocked snapshots memtable entries in [istart, iend) sorted by
// internal key, tombstones included (they shadow older run entries).
func (b *lsmBackend) memRangeLocked(istart, iend string) []runEntry {
	entries := make([]runEntry, 0)
	for ik, e := range b.mem {
		if ik >= istart && ik < iend {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ikey < entries[j].ikey })
	return entries
}

// Range k-way merges the memtable and every run over [start, end),
// newest record per key winning and tombstones dropped — ordered
// iteration without materializing the keyspace. The RLock is held for
// the whole scan, giving the whole-batch atomicity the Backend contract
// requires; installs (flush/compaction swaps) briefly wait on it.
func (b *lsmBackend) Range(start, end string) []KV {
	out := make([]KV, 0)
	if end != "" && end <= start {
		return out
	}
	istart, iend := dataKey(start), dataKeyEnd(end)
	b.mu.RLock()
	defer b.mu.RUnlock()
	sources := make([]entrySource, 0, len(b.runs)+1)
	sources = append(sources, newSliceIter(b.memRangeLocked(istart, iend)))
	for i := len(b.runs) - 1; i >= 0; i-- { // newest first
		it, err := newRunIter(b.runs[i], istart, iend, b.loadBlock)
		if err != nil {
			b.recordErr(err)
			return make([]KV, 0)
		}
		sources = append(sources, it)
	}
	err := mergeSources(sources, func(e runEntry) error {
		if e.tombstone {
			return nil
		}
		out = append(out, KV{Key: e.ikey[1:], VersionedValue: VersionedValue{Value: e.value, Version: e.version}})
		return nil
	})
	if err != nil {
		// A torn scan must not masquerade as a result (fail-stop surface
		// via Err/Close).
		b.recordErr(err)
		return make([]KV, 0)
	}
	return out
}

func (b *lsmBackend) KeyCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return int(b.liveKeys)
}

// PersistedHeight returns the height of the last batch that reached the
// store (zero for a fresh store).
func (b *lsmBackend) PersistedHeight() rwset.Version {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.height
}

// Stats reports WAL size and lifetime I/O counts, plus the LSM-specific
// run/flush/cache figures.
func (b *lsmBackend) Stats() Stats {
	hits, misses, _ := b.cache.counters()
	b.mu.RLock()
	defer b.mu.RUnlock()
	return Stats{
		LogBytes:    b.walSize,
		Appends:     b.appends,
		Fsyncs:      b.fsyncs,
		Compactions: b.compactions,
		Flushes:     b.flushes,
		Runs:        int64(len(b.runs)),
		CacheHits:   hits,
		CacheMisses: misses,
	}
}

func (b *lsmBackend) recordErr(err error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if b.applyErr == nil {
		b.applyErr = err
	}
}

// Err returns the first error any operation recorded, if any — the
// fail-stop surface.
func (b *lsmBackend) Err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.applyErr
}

// Reset drops all contents, in memory and on disk. It first waits out
// any in-flight compaction (bumping gen so the compaction abandons its
// result). On-disk order is crash-safe: truncate the WAL (the store
// falls back to the flushed state), remove the manifest (now empty),
// then the runs (orphans either way).
func (b *lsmBackend) Reset() {
	b.mu.Lock()
	b.gen++
	b.mu.Unlock()
	b.compactWG.Wait()

	b.mu.Lock()
	defer b.mu.Unlock()
	b.mem = make(map[string]runEntry)
	b.memBytes = 0
	b.height = rwset.Version{}
	b.liveKeys = 0
	b.flushedHeight = rwset.Version{}
	b.flushedLiveKeys = 0
	b.cache.purgeAll()
	if b.closed {
		return
	}
	broken := false
	if err := b.wal.Truncate(0); err != nil {
		broken = true
		b.recordErr(err)
	} else if _, err := b.wal.Seek(0, io.SeekStart); err != nil {
		broken = true
		b.recordErr(err)
	}
	b.walSize = 0
	if err := os.Remove(filepath.Join(b.dir, manifestFileName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		b.recordErr(err)
	}
	for _, r := range b.runs {
		r.close()
		if err := os.Remove(filepath.Join(b.dir, runFileName(r.seq))); err != nil {
			b.recordErr(err)
		}
	}
	b.runs = nil
	if !broken {
		// An emptied WAL has no torn tail: every write path is clean again
		// (the first error stays recorded for Err/Close).
		b.walBroken = false
		b.flushBroken = false
		b.compactBroken = false
	} else {
		b.walBroken = true
	}
}

// Close waits out any in-flight compaction, fsyncs and closes the WAL
// and run files, and returns the first recorded error.
func (b *lsmBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.Err()
	}
	b.closed = true
	b.mu.Unlock()
	b.compactWG.Wait()

	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.wal.Sync(); err != nil {
		b.recordErr(err)
	} else {
		b.fsyncs++
	}
	if err := b.wal.Close(); err != nil {
		b.recordErr(err)
	}
	for _, r := range b.runs {
		if err := r.close(); err != nil {
			b.recordErr(err)
		}
	}
	return b.Err()
}
