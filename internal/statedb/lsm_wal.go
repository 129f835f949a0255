package statedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"fabriccrdt/internal/rwset"
)

// The LSM write-ahead log's record codec. Every statedb file is a
// sequence of framed records:
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// A WAL payload is one batch record (see encodeBatch): the commit height
// followed by the block's key mutations and metadata writes. One Apply
// appends exactly one frame, so a crash can only ever produce a torn
// tail, which open truncates back to the last intact frame.

const (
	frameHeaderLen = 8
	recordVersion  = 1

	// maxRecordBytes bounds a single record so a corrupt length prefix
	// cannot trigger a multi-gigabyte allocation on open.
	maxRecordBytes = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use of a closed durable store.
var ErrClosed = errors.New("statedb: store is closed")

// scanFrames reads a stream of framed records ([4B length][4B CRC32C]
// [payload]) from r, calling apply for each intact payload, and returns
// the offset just past the last intact frame. io.EOF at a frame boundary
// is clean termination (nil error); a torn or corrupt tail — or an apply
// rejection — stops the scan with a descriptive error. The LSM backend
// replays its WAL and reads its MANIFEST through it.
func scanFrames(r io.Reader, apply func(payload []byte) error) (int64, error) {
	var off int64
	var header [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return off, nil // clean end
			}
			return off, fmt.Errorf("torn frame header at offset %d", off)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length > maxRecordBytes {
			return off, fmt.Errorf("implausible record length %d at offset %d", length, off)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, fmt.Errorf("torn record payload at offset %d", off)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return off, fmt.Errorf("record CRC mismatch at offset %d", off)
		}
		if err := apply(payload); err != nil {
			return off, fmt.Errorf("%w at offset %d", err, off)
		}
		off += frameHeaderLen + int64(length)
	}
}

// frameRecord wraps one payload in the statedb frame: [4B little-endian
// length][4B CRC32-Castagnoli][payload].
func frameRecord(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeaderLen:], payload)
	return frame
}

// Batch record encoding (little-endian, length-prefixed strings/bytes):
//
//	u8  record format version (1)
//	u64 height.BlockNum, u64 height.TxNum
//	u32 update count, then per update:
//	    u32 key length, key bytes,
//	    u8  flags (bit 0 = delete),
//	    u64 version.BlockNum, u64 version.TxNum,
//	    u32 value length, value bytes   (omitted for deletes)
//	u32 meta count, then per entry:
//	    u32 key length, key bytes, u32 value length, value bytes
//
// Updates are written in map order: replay order within one batch is
// irrelevant because UpdateBatch already collapsed per-key writes.

func encodeBatch(updates map[string]Update, meta map[string][]byte, height rwset.Version) []byte {
	size := 1 + 16 + 4 + 4
	for k, u := range updates {
		size += 4 + len(k) + 1 + 16
		if !u.IsDelete {
			size += 4 + len(u.Value)
		}
	}
	for k, v := range meta {
		size += 4 + len(k) + 4 + len(v)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, recordVersion)
	buf = binary.LittleEndian.AppendUint64(buf, height.BlockNum)
	buf = binary.LittleEndian.AppendUint64(buf, height.TxNum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(updates)))
	for k, u := range updates {
		buf = appendString(buf, k)
		var flags byte
		if u.IsDelete {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, u.Version.BlockNum)
		buf = binary.LittleEndian.AppendUint64(buf, u.Version.TxNum)
		if !u.IsDelete {
			buf = appendBytes(buf, u.Value)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	for k, v := range meta {
		buf = appendString(buf, k)
		buf = appendBytes(buf, v)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// errTruncatedRecord reports a record shorter than its own structure
// claims — distinct from a torn frame, which the CRC already caught; this
// guards against decoding bugs and hand-corrupted files.
var errTruncatedRecord = errors.New("truncated batch record")

func decodeBatch(buf []byte) (map[string]Update, map[string][]byte, rwset.Version, error) {
	var height rwset.Version
	d := &decoder{buf: buf}
	ver := d.u8()
	if d.err == nil && ver != recordVersion {
		return nil, nil, height, fmt.Errorf("unsupported record version %d", ver)
	}
	height.BlockNum = d.u64()
	height.TxNum = d.u64()
	nUpdates := d.u32()
	updates := make(map[string]Update, nUpdates)
	for i := uint32(0); i < nUpdates && d.err == nil; i++ {
		key := d.str()
		flags := d.u8()
		u := Update{IsDelete: flags&1 != 0}
		u.Version.BlockNum = d.u64()
		u.Version.TxNum = d.u64()
		if !u.IsDelete {
			u.Value = d.bytes()
		}
		updates[key] = u
	}
	nMeta := d.u32()
	meta := make(map[string][]byte, nMeta)
	for i := uint32(0); i < nMeta && d.err == nil; i++ {
		key := d.str()
		meta[key] = d.bytes()
	}
	if d.err != nil {
		return nil, nil, rwset.Version{}, d.err
	}
	if len(d.buf) != d.off {
		return nil, nil, rwset.Version{}, fmt.Errorf("batch record has %d trailing bytes", len(d.buf)-d.off)
	}
	return updates, meta, height, nil
}

// decoder is a cursor over a batch record; the first structural failure
// sticks in err and zero values flow from then on.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) || n < 0 {
		d.err = errTruncatedRecord
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str() string { return string(d.take(int(d.u32()))) }

func (d *decoder) bytes() []byte {
	b := d.take(int(d.u32()))
	if b == nil {
		return nil
	}
	// Copy out of the record buffer: stored values must not alias the
	// (reusable) decode input.
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
