// Package wal implements LogBase's log repository (paper §3.4): the
// write-ahead log that doubles as the system's only data store.
//
// The log is an infinite sequential repository made of contiguous
// segments, each an append-only file in the DFS. A log record is a
// <LogKey, Data> pair: LogKey carries the log sequence number (LSN),
// table name and tablet; Data carries the RowKey (primary key + column
// group + write timestamp) and the value. Delete operations persist an
// "invalidated" record whose value is null; transaction commits persist
// a commit record. Records are length-prefixed and CRC-framed so a torn
// tail write is detected and truncated during recovery scans.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind discriminates log record types.
type Kind uint8

const (
	// KindWrite is an insert or update of one row/column-group version.
	KindWrite Kind = iota + 1
	// KindDelete is an invalidated entry: a delete persisted with a null
	// value so the deletion survives recovery (paper §3.6.3).
	KindDelete
	// KindCommit marks a transaction as committed; writes of a
	// transaction are visible only if their commit record exists
	// (paper §3.7.2).
	KindCommit
	// KindCheckpoint records a consistent checkpoint (paper §3.8). In the
	// log it is a marker; in a checkpoint file it frames the header (LSN =
	// the last LSN covered, Value = the log position redo starts from)
	// and each index's entries (Tablet, Group, Value = the entries).
	KindCheckpoint
)

func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindDelete:
		return "delete"
	case KindCommit:
		return "commit"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one log entry.
type Record struct {
	Kind Kind
	// LSN is assigned by the log at append time.
	LSN uint64
	// Table and Tablet identify the partition the write belongs to.
	Table  string
	Tablet string
	// Group is the column group the write updates.
	Group string
	// Key is the row's primary key.
	Key []byte
	// TS is the version timestamp (the writing transaction's commit
	// timestamp, or the write's wall timestamp for auto-commit writes).
	TS int64
	// Value is the written content; nil for KindDelete.
	Value []byte
	// TxnID links writes to their commit record; zero for auto-commit.
	TxnID uint64
}

// Ptr locates a record in the log: segment file number, byte offset in
// that segment, and total framed length (paper §3.5: "file number, the
// offset in the file, the record's size").
type Ptr struct {
	Seg uint32
	Off int64
	Len uint32
}

func (p Ptr) String() string { return fmt.Sprintf("seg%d@%d+%d", p.Seg, p.Off, p.Len) }

// Position is a scan cursor: everything at or after it is "the tail".
type Position struct {
	Seg uint32
	Off int64
}

// Framing: u32 payloadLen | u32 crc32(payload) | payload.
const frameHeaderSize = 8

var (
	// ErrCorrupt reports a CRC mismatch or malformed payload.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrTorn reports a truncated record at the log tail.
	ErrTorn = errors.New("wal: torn record at tail")
)

// CorruptionError pins log corruption to an exact location. A torn
// frame at the tail of the segment open for append is expected after a
// crash and ends that segment's data (readWindow.next); everything else
// — a CRC mismatch anywhere, or a torn frame in a sealed segment —
// means durable records may be damaged, and every reader (recovery,
// compaction, clustered scans, the scrubber) must fail loudly with the
// location rather than silently dropping the suffix.
type CorruptionError struct {
	// Segment and Off locate the first bad frame.
	Segment uint32
	Off     int64
	// Err is the underlying defect (ErrCorrupt or ErrTorn).
	Err error
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: segment %d corrupt at offset %d: %v", e.Segment, e.Off, e.Err)
}

func (e *CorruptionError) Unwrap() error { return e.Err }

func putString(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		panic("wal: string field too long")
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func putBytes(buf []byte, b []byte, present bool) []byte {
	if !present {
		return binary.LittleEndian.AppendUint32(buf, math.MaxUint32)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// FrameSize is the framed length of r: what AppendFrame adds.
func FrameSize(r *Record) int {
	n := frameHeaderSize + 1 + 3*8 + 3*2 + len(r.Table) + len(r.Tablet) + len(r.Group) + 4 + len(r.Key) + 4
	if r.Kind != KindDelete {
		n += len(r.Value)
	}
	return n
}

// AppendFrame appends r's frame (u32 payloadLen | u32 crc32(payload) |
// payload) to dst and returns the extended slice. It is the one frame
// encoder: dst grows once, header and payload are written in place, and
// the length and CRC are filled in afterwards, so a caller appending
// into a buffer of its own (Log.Append's batch, SegmentWriter's chunk,
// a checkpoint file) allocates nothing per record.
func AppendFrame(dst []byte, r *Record) []byte {
	start := len(dst)
	if n := FrameSize(r); cap(dst)-start < n {
		// Grow once, doubling: slices.Grow allocates twice under -race,
		// where the allocation ceilings are checked too.
		dst = append(make([]byte, 0, max(2*cap(dst), start+n)), dst...)
	}
	dst = dst[:start+frameHeaderSize]
	dst = append(dst, byte(r.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = binary.LittleEndian.AppendUint64(dst, r.TxnID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.TS))
	dst = putString(dst, r.Table)
	dst = putString(dst, r.Tablet)
	dst = putString(dst, r.Group)
	dst = putBytes(dst, r.Key, r.Key != nil)
	dst = putBytes(dst, r.Value, r.Value != nil && r.Kind != KindDelete)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Encode frames the record for appending: AppendFrame into a new slice.
func Encode(r *Record) []byte { return AppendFrame(nil, r) }

type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) u8() uint8 {
	if p.err != nil || p.off+1 > len(p.b) {
		p.fail()
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
}

func (p *payloadReader) u16() uint16 {
	if p.err != nil || p.off+2 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}

func (p *payloadReader) u32() uint32 {
	if p.err != nil || p.off+4 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) u64() uint64 {
	if p.err != nil || p.off+8 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

// take returns the next n payload bytes as a sub-slice: the field
// readers copy nothing.
func (p *payloadReader) take(n int) []byte {
	if p.err != nil || p.off+n > len(p.b) {
		p.fail()
		return nil
	}
	b := p.b[p.off : p.off+n]
	p.off += n
	return b
}

func (p *payloadReader) str() []byte { return p.take(int(p.u16())) }

func (p *payloadReader) bytes() []byte {
	if n := p.u32(); n != math.MaxUint32 {
		return p.take(int(n))
	}
	return nil
}

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = ErrCorrupt
	}
}

// frameView is one checked frame. Its fields are sub-slices of the
// frame bytes, valid only as long as those are.
type frameView struct {
	kind                 Kind
	lsn, txnID           uint64
	ts                   int64
	table, tablet, group []byte
	key, value           []byte // nil when absent
	size                 int    // framed length; 0 unless the frame checked out
}

// parseFrame checks the frame at the front of b — length, CRC, payload
// structure, kind, no trailing bytes — and fills f with its fields,
// without allocating. A short buffer returns ErrTorn; every other defect
// ErrCorrupt. It is the one record parser: Decode copies out what it
// fills, and VerifySegment stops at the check. f is filled in place
// because copying the view out costs as much as parsing it.
func parseFrame(b []byte, f *frameView) error {
	f.size = 0
	if len(b) < frameHeaderSize {
		return ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < frameHeaderSize+n {
		return ErrTorn
	}
	payload := b[frameHeaderSize : frameHeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return ErrCorrupt
	}
	pr := payloadReader{b: payload}
	f.kind = Kind(pr.u8())
	f.lsn = pr.u64()
	f.txnID = pr.u64()
	f.ts = int64(pr.u64())
	f.table = pr.str()
	f.tablet = pr.str()
	f.group = pr.str()
	f.key = pr.bytes()
	f.value = pr.bytes()
	if pr.err != nil {
		return pr.err
	}
	if pr.off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload)-pr.off)
	}
	switch f.kind {
	case KindWrite, KindDelete, KindCommit, KindCheckpoint:
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, f.kind)
	}
	f.size = frameHeaderSize + n
	return nil
}

// record copies the frame's fields into a Record that aliases nothing.
func (f *frameView) record() Record {
	return Record{Kind: f.kind, LSN: f.lsn, TxnID: f.txnID, TS: f.ts,
		Table: string(f.table), Tablet: string(f.tablet), Group: string(f.group),
		Key: bytes.Clone(f.key), Value: bytes.Clone(f.value)}
}

// Decode parses one framed record from b, returning the record and the
// total number of bytes consumed. A short buffer returns ErrTorn; a CRC
// mismatch or a malformed payload returns ErrCorrupt.
func Decode(b []byte) (Record, int, error) {
	var f frameView
	if err := parseFrame(b, &f); err != nil {
		return Record{}, 0, err
	}
	return f.record(), f.size, nil
}
