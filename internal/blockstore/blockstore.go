// Package blockstore implements the peer's durable block store: an
// append-only log of committed block bodies, one per (peer, channel),
// making the ledger — not just the state database — the recovery root.
// In Fabric the blockchain is the source of truth and the world state a
// rebuildable cache (Androulaki et al., §2.1); with this store a restarted
// peer can serve its full history to lagging peers (Peer.SyncFrom) and
// re-derive its world state from block 0 (Peer.RebuildState), neither of
// which a state checkpoint alone allows.
//
// On-disk layout inside the store directory (DataDir/<channel-ID>/blocks
// through the channel runtime):
//
//	blocks.log   framed block records, appended one per committed block
//	blocks.idx   offset sidecar: where each block's frame starts
//
// The log uses the same framing discipline as the statedb LSM WAL:
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// with each payload holding one block (format version byte, block number,
// JSON block body carrying the commit-time validation codes). One Append
// writes exactly one frame, so a crash can only produce a torn *tail*;
// Open truncates a torn or CRC-corrupt tail back to the last intact frame.
//
// The index sidecar is an optimization, never an authority: it is written
// atomically (temp file + rename) on Close and every few hundred appends,
// and Open verifies the last indexed frame before trusting it, then scans
// the log forward for any frames the index has not caught up with. A
// missing, stale or corrupt index just means a full log scan.
package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"fabriccrdt/internal/ledger"
)

const (
	logFileName = "blocks.log"
	idxFileName = "blocks.idx"

	frameHeaderLen = 8
	recordVersion  = 1

	// maxRecordBytes bounds a single record so a corrupt length prefix
	// cannot trigger a multi-gigabyte allocation on open.
	maxRecordBytes = 1 << 30

	// payloadHeaderLen is the per-record prefix before the block body:
	// format version byte + the block number.
	payloadHeaderLen = 1 + 8

	// idxEvery flushes the offset sidecar after this many appends, so a
	// crashed store reopens with at most idxEvery frames to re-scan.
	idxEvery = 256
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use of a closed block store.
var ErrClosed = errors.New("blockstore: store is closed")

// Options tunes a block store.
type Options struct {
	// SyncEveryAppend fsyncs the log after every appended block. Off (the
	// default), blocks reach the OS page cache on Append and the disk on
	// Close or an index flush: a process crash loses nothing, a host power
	// loss may lose the most recent blocks (never corrupting earlier ones)
	// — the same durability window as the statedb LSM WAL.
	SyncEveryAppend bool
}

// Store is one channel's durable block log. Appends are strictly
// sequential (block n can only follow block n-1, starting from 0); reads
// may run concurrently with appends, so a peer serves history to a
// syncing peer while it keeps committing.
type Store struct {
	dir  string
	opts Options

	mu   sync.RWMutex
	log  *os.File
	size int64
	// offsets[n] is the log offset of block n's frame; the store always
	// covers the contiguous range [0, len(offsets)).
	offsets []int64
	// appendsSinceIdx counts frames not yet covered by the sidecar.
	appendsSinceIdx int
	closed          bool
	// broken disables the write path after a failed append: the file may
	// end in a torn frame, and a frame written after it would be silently
	// dropped by the next open's tail truncation.
	broken bool
	// I/O accounting surfaced via Stats (mu held for writes).
	appends int64
	fsyncs  int64
}

// Stats is the store's I/O accounting, scraped into the obs metrics
// endpoint.
type Stats struct {
	LogBytes int64
	Appends  int64
	Fsyncs   int64
}

// Stats reports the current log size and lifetime append/fsync counts
// (fsyncs include the sidecar-index installs).
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{LogBytes: s.size, Appends: s.appends, Fsyncs: s.fsyncs}
}

// Open opens (creating if needed) the block store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("blockstore: store requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: creating store dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: opening log: %w", err)
	}
	s := &Store{dir: dir, opts: opts, log: f}
	start := s.loadIndex()
	if err := s.scanFrom(start); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Height returns the number of stored blocks — equivalently, the number
// the next appended block must carry. The store always covers the
// contiguous range [0, Height()).
func (s *Store) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.offsets))
}

// Append writes block b to the log. b must be the next block in sequence
// (Header.Number == Height()); the caller appends blocks exactly as they
// commit, validation codes included, so the log replays into the same
// outcomes the live pipeline produced.
//
// The write path is fail-stop, like the statedb LSM WAL: after the first
// failed append (which may have left a torn frame mid-file) every further
// Append fails — a frame after a torn one would be discarded by the next
// open's tail truncation, faking durability.
func (s *Store) Append(b *ledger.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.broken:
		return errors.New("blockstore: write path disabled by an earlier failed append")
	}
	next := uint64(len(s.offsets))
	if b.Header.Number != next {
		return fmt.Errorf("blockstore: appending block %d out of sequence (next is %d)", b.Header.Number, next)
	}
	body, err := b.Marshal()
	if err != nil {
		return fmt.Errorf("blockstore: encoding block %d: %w", b.Header.Number, err)
	}
	payload := make([]byte, payloadHeaderLen, payloadHeaderLen+len(body))
	payload[0] = recordVersion
	binary.LittleEndian.PutUint64(payload[1:9], b.Header.Number)
	payload = append(payload, body...)
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("blockstore: block record of %d bytes exceeds the %d-byte record limit", len(payload), maxRecordBytes)
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeaderLen:], payload)
	if _, err := s.log.Write(frame); err != nil {
		s.broken = true
		return fmt.Errorf("blockstore: appending block %d: %w", b.Header.Number, err)
	}
	if s.opts.SyncEveryAppend {
		if err := s.log.Sync(); err != nil {
			s.broken = true
			return fmt.Errorf("blockstore: syncing log: %w", err)
		}
		s.fsyncs++
	}
	s.offsets = append(s.offsets, s.size)
	s.size += int64(len(frame))
	s.appends++
	s.appendsSinceIdx++
	if s.appendsSinceIdx >= idxEvery {
		// Best-effort: a failed sidecar write only costs the next open a
		// longer scan.
		if s.writeIndexLocked() == nil {
			s.appendsSinceIdx = 0
		}
	}
	return nil
}

// Get returns stored block n. Blocks the store does not hold report
// ledger.ErrBlockNotFound.
func (s *Store) Get(n uint64) (*ledger.Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if n >= uint64(len(s.offsets)) {
		return nil, fmt.Errorf("%w: %d (block store holds [0, %d))", ledger.ErrBlockNotFound, n, len(s.offsets))
	}
	b, _, err := s.readBlockAt(s.offsets[n])
	if err != nil {
		return nil, fmt.Errorf("blockstore: reading block %d: %w", n, err)
	}
	if b.Header.Number != n {
		return nil, fmt.Errorf("blockstore: record at offset %d holds block %d, want %d", s.offsets[n], b.Header.Number, n)
	}
	return b, nil
}

// Iterate calls fn for every stored block numbered from and up, in order,
// stopping at the first error and returning it. Blocks appended after the
// call starts are not visited.
func (s *Store) Iterate(from uint64, fn func(*ledger.Block) error) error {
	height := s.Height()
	for n := from; n < height; n++ {
		b, err := s.Get(n)
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes the log to stable storage. The channel runtime calls it
// before the state store makes anything durable beyond its routine
// appends (snapshot compaction), preserving the recovery invariant that
// the durable state never gets ahead of the block log.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.log.Sync(); err != nil {
		s.broken = true
		return fmt.Errorf("blockstore: syncing log: %w", err)
	}
	s.fsyncs++
	return nil
}

// Close flushes the offset sidecar and the log and closes the store,
// returning the first failure.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if err := s.writeIndexLocked(); err != nil && first == nil {
		first = err
	}
	if err := s.log.Sync(); err != nil && first == nil {
		first = err
	}
	if err := s.log.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// readBlockAt reads and verifies one frame, returning the decoded block
// and the offset just past the frame. Callers hold at least the read lock.
func (s *Store) readBlockAt(off int64) (*ledger.Block, int64, error) {
	var header [frameHeaderLen]byte
	if _, err := s.log.ReadAt(header[:], off); err != nil {
		return nil, 0, fmt.Errorf("torn frame header at offset %d", off)
	}
	length := binary.LittleEndian.Uint32(header[0:4])
	sum := binary.LittleEndian.Uint32(header[4:8])
	if length > maxRecordBytes || length < payloadHeaderLen {
		return nil, 0, fmt.Errorf("implausible record length %d at offset %d", length, off)
	}
	payload := make([]byte, length)
	if _, err := s.log.ReadAt(payload, off+frameHeaderLen); err != nil {
		return nil, 0, fmt.Errorf("torn record payload at offset %d", off)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, fmt.Errorf("record CRC mismatch at offset %d", off)
	}
	if payload[0] != recordVersion {
		return nil, 0, fmt.Errorf("unsupported record version %d at offset %d", payload[0], off)
	}
	num := binary.LittleEndian.Uint64(payload[1:9])
	b, err := ledger.UnmarshalBlock(payload[payloadHeaderLen:])
	if err != nil {
		return nil, 0, fmt.Errorf("record decode at offset %d: %w", off, err)
	}
	if b.Header.Number != num {
		return nil, 0, fmt.Errorf("record at offset %d claims block %d but holds block %d", off, num, b.Header.Number)
	}
	return b, off + frameHeaderLen + int64(length), nil
}

// scanFrom walks the log from offset start, recording every intact frame's
// offset and truncating anything after the last intact, in-sequence frame
// (the torn or corrupt tail a crash mid-Append leaves behind).
func (s *Store) scanFrom(start int64) error {
	info, err := s.log.Stat()
	if err != nil {
		return fmt.Errorf("blockstore: statting log: %w", err)
	}
	fileSize := info.Size()
	off := start
	for off < fileSize {
		b, end, err := s.readBlockAt(off)
		if err != nil || b.Header.Number != uint64(len(s.offsets)) {
			break
		}
		s.offsets = append(s.offsets, off)
		off = end
	}
	if off < fileSize {
		if err := s.log.Truncate(off); err != nil {
			return fmt.Errorf("blockstore: truncating corrupt log tail: %w", err)
		}
	}
	if _, err := s.log.Seek(off, 0); err != nil {
		return fmt.Errorf("blockstore: seeking log: %w", err)
	}
	s.size = off
	return nil
}

// Index sidecar payload (one CRC frame around it, like the log):
//
//	u8  format version (1)
//	u64 block count
//	u64 end offset of the last indexed frame
//	count × u64 frame offsets
//
// writeIndexLocked writes it via a temp file + rename, so the sidecar is
// either the previous intact one or the new intact one.
func (s *Store) writeIndexLocked() error {
	payload := make([]byte, 0, 1+16+8*len(s.offsets))
	payload = append(payload, recordVersion)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(s.offsets)))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(s.size))
	for _, off := range s.offsets {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(off))
	}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)

	// The log must be durable up to everything the index claims before the
	// index is installed: an index pointing past the persisted log would
	// survive a power loss that the frames it indexes did not.
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("blockstore: syncing log before index: %w", err)
	}
	s.fsyncs++
	tmp := filepath.Join(s.dir, idxFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("blockstore: creating index temp: %w", err)
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
		return fmt.Errorf("blockstore: writing index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, idxFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("blockstore: installing index: %w", err)
	}
	return nil
}

// loadIndex seeds s.offsets from the sidecar when it is intact and
// consistent with the log, returning the offset scanning should resume
// from. Any inconsistency — missing file, bad CRC, offsets past the log's
// end, a last frame that no longer verifies — discards the index and
// returns 0 (full scan): the log is always the authority.
func (s *Store) loadIndex() int64 {
	data, err := os.ReadFile(filepath.Join(s.dir, idxFileName))
	if err != nil || len(data) < frameHeaderLen {
		return 0
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if int64(length) != int64(len(data)-frameHeaderLen) {
		return 0
	}
	payload := data[frameHeaderLen:]
	if crc32.Checksum(payload, crcTable) != sum || len(payload) < 1+16 || payload[0] != recordVersion {
		return 0
	}
	count := binary.LittleEndian.Uint64(payload[1:9])
	end := int64(binary.LittleEndian.Uint64(payload[9:17]))
	if uint64(len(payload)-17) != count*8 {
		return 0
	}
	info, err := s.log.Stat()
	if err != nil || end > info.Size() {
		return 0
	}
	offsets := make([]int64, count)
	prev := int64(-1)
	for i := range offsets {
		off := int64(binary.LittleEndian.Uint64(payload[17+8*i:]))
		if off <= prev || off >= end {
			return 0
		}
		offsets[i] = off
		prev = off
	}
	if count > 0 {
		// Trust, but verify the newest indexed frame end to end; earlier
		// frames are CRC-checked on every read anyway.
		b, frameEnd, err := s.readBlockAt(offsets[count-1])
		if err != nil || b.Header.Number != count-1 || frameEnd != end {
			return 0
		}
	}
	s.offsets = offsets
	return end
}
