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
//
// A frame is u32 payloadLen | u32 crc32(payload) | payload, and the
// payload is
//
//	kind u8 | uvarint LSN | uvarint TxnID | varint TS (zigzag) |
//	uvarint len + table | uvarint len + tablet | uvarint len + group |
//	uvarint(len+1) + key | uvarint(len+1) + value
//
// where a key or value prefix of 0 means the field is absent (a
// delete's value always is). Every integer takes the bytes its value
// needs, and a frame whose fields are not minimally encoded is corrupt,
// so FrameSize of the fields is exactly the frame's length.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
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

// Framing: u32 payloadLen | u32 crc32(payload) | payload (package
// comment). The header stays fixed-width, so a frame walker needs only
// its first 8 bytes to step over it.
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

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps a signed value to the unsigned one binary.AppendVarint
// encodes, so a small negative timestamp stays short.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// optField is what an optional field's length prefix holds: 0 when the
// field is absent, its length plus one when present.
func optField(b []byte, present bool) uint64 {
	if !present {
		return 0
	}
	return uint64(len(b)) + 1
}

// FrameSize is the framed length of r: what AppendFrame adds.
func FrameSize(r *Record) int {
	n := frameHeaderSize + 1 + uvarintLen(r.LSN) + uvarintLen(r.TxnID) + uvarintLen(zigzag(r.TS))
	for _, l := range [...]int{len(r.Table), len(r.Tablet), len(r.Group)} {
		n += uvarintLen(uint64(l)) + l
	}
	for _, l := range [...]uint64{optField(r.Key, r.Key != nil), optField(r.Value, r.Value != nil && r.Kind != KindDelete)} {
		n += uvarintLen(l) + int(max(l, 1)-1)
	}
	return n
}

func putString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func putOpt(buf []byte, b []byte, present bool) []byte {
	buf = binary.AppendUvarint(buf, optField(b, present))
	if present {
		buf = append(buf, b...)
	}
	return buf
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
	dst = binary.AppendUvarint(dst, r.LSN)
	dst = binary.AppendUvarint(dst, r.TxnID)
	dst = binary.AppendVarint(dst, r.TS)
	dst = putString(dst, r.Table)
	dst = putString(dst, r.Tablet)
	dst = putString(dst, r.Group)
	dst = putOpt(dst, r.Key, r.Key != nil)
	dst = putOpt(dst, r.Value, r.Value != nil && r.Kind != KindDelete)
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

// uvarint reads one uvarint. Most fields take one byte, which is read
// here; longer ones are uvarintLong's.
func (p *payloadReader) uvarint() uint64 {
	if p.off < len(p.b) && p.b[p.off] < 0x80 {
		p.off++
		return uint64(p.b[p.off-1])
	}
	return p.uvarintLong()
}

// uvarintLong reads a uvarint of more than one byte, refusing one that
// is truncated, runs past 64 bits, or ends in a zero byte: a longer
// encoding than its value needs. So every accepted frame is minimally
// encoded, and FrameSize of its fields is its length.
func (p *payloadReader) uvarintLong() uint64 {
	var v uint64
	for i, shift := p.off, 0; i < len(p.b) && shift < 64; i, shift = i+1, shift+7 {
		c := p.b[i]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if (c == 0 && i > p.off) || (shift == 63 && c > 1) {
				break
			}
			p.off = i + 1
			return v
		}
	}
	p.fail()
	return 0
}

// varint reads one zigzag-encoded signed integer.
func (p *payloadReader) varint() int64 {
	u := p.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// take returns the next n payload bytes as a sub-slice: the field
// readers copy nothing.
func (p *payloadReader) take(n uint64) []byte {
	if p.err != nil || n > uint64(len(p.b)-p.off) {
		p.fail()
		return nil
	}
	b := p.b[p.off : p.off+int(n)]
	p.off += int(n)
	return b
}

func (p *payloadReader) str() []byte { return p.take(p.uvarint()) }

// opt reads an optional field: nil when absent.
func (p *payloadReader) opt() []byte {
	if n := p.uvarint(); n > 0 {
		return p.take(n - 1)
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
// structure (no truncated or overlong varint), kind, no trailing bytes,
// no value on a delete, minimal encoding — and fills f with its fields,
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
	f.lsn = pr.uvarint()
	f.txnID = pr.uvarint()
	f.ts = pr.varint()
	f.table = pr.str()
	f.tablet = pr.str()
	f.group = pr.str()
	f.key = pr.opt()
	f.value = pr.opt()
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
	if f.kind == KindDelete && f.value != nil {
		return fmt.Errorf("%w: a delete with a value", ErrCorrupt)
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
