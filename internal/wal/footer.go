package wal

// Segment footer metadata (paper §3.6.5): compaction writes each sorted
// segment with a footer bounding the clustering keys (table, column
// group, record key) inside it. The clustered scan uses the bounds to
// pick only the segments covering a requested range; it needs no seek
// offset within a segment, because the index walk hands it each row's
// exact record pointer (Scanner.ValueAt).
//
// Layout: the footer payload is appended after the last record, then a
// fixed-size trailer [u32 payloadLen | u32 crc32(payload) | 8-byte
// magic] closes the file. Readers find the footer by reading the
// trailer at end-of-file; segments without the trailing magic (all
// unsorted segments, and pre-footer logs) simply have no footer. The
// record area of a footed segment ends where the footer begins
// (segState.dataEnd), so log scans never try to decode footer bytes as
// records.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

var footerMagic = []byte{'L', 'B', 'S', 'F', 'T', 'R', '0', '1'}

const footerTrailerSize = 16 // u32 len + u32 crc + 8-byte magic

// footerVersion is the payload layout: uvarint version | min key | max
// key, each key its table, group and key as uvarint length + bytes.
const footerVersion = 3

// RecordKey is the clustering key compaction sorts by: (table, column
// group, record key).
type RecordKey struct {
	Table string
	Group string
	Key   []byte
}

// Compare orders clustering keys lexicographically by (Table, Group,
// Key).
func (k RecordKey) Compare(o RecordKey) int {
	if k.Table != o.Table {
		if k.Table < o.Table {
			return -1
		}
		return 1
	}
	if k.Group != o.Group {
		if k.Group < o.Group {
			return -1
		}
		return 1
	}
	return bytes.Compare(k.Key, o.Key)
}

// SegmentMeta is the decoded footer of one sorted segment.
type SegmentMeta struct {
	// Min and Max bound the clustering keys present (inclusive).
	Min, Max RecordKey
}

// Covers reports whether [lo, hi) intersects the segment's key range
// for the given table and group. A nil hi.Key with hiOpen means "to the
// end of the (table, group) space".
func (m *SegmentMeta) Covers(table, group string, start, end []byte) bool {
	lo := RecordKey{Table: table, Group: group, Key: start}
	if m.Max.Compare(lo) < 0 {
		return false
	}
	if end != nil {
		hi := RecordKey{Table: table, Group: group, Key: end}
		// end is exclusive: a segment whose min is >= hi is out.
		if m.Min.Compare(hi) >= 0 {
			return false
		}
		return true
	}
	// Open upper bound: out only when the segment ends before (table,
	// group, start) or starts after the whole (table, group) space.
	if m.Min.Table > table || (m.Min.Table == table && m.Min.Group > group) {
		return false
	}
	return true
}

func putRecordKey(buf []byte, k RecordKey) []byte {
	buf = putString(buf, k.Table)
	buf = putString(buf, k.Group)
	buf = binary.AppendUvarint(buf, uint64(len(k.Key)))
	return append(buf, k.Key...)
}

func (p *payloadReader) recordKey() RecordKey {
	k := RecordKey{Table: string(p.str()), Group: string(p.str())}
	k.Key = append([]byte(nil), p.str()...)
	return k
}

// encodeFooter serialises the footer: payload + trailer.
func encodeFooter(m *SegmentMeta) []byte {
	buf := make([]byte, 0, 256)
	buf = binary.AppendUvarint(buf, footerVersion)
	buf = putRecordKey(buf, m.Min)
	buf = putRecordKey(buf, m.Max)
	out := make([]byte, 0, len(buf)+footerTrailerSize)
	out = append(out, buf...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(buf)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(buf))
	return append(out, footerMagic...)
}

func decodeFooterPayload(payload []byte) (*SegmentMeta, error) {
	pr := &payloadReader{b: payload}
	if v := pr.uvarint(); v != footerVersion {
		return nil, fmt.Errorf("%w: footer version %d", ErrCorrupt, v)
	}
	m := &SegmentMeta{}
	m.Min = pr.recordKey()
	m.Max = pr.recordKey()
	if pr.err != nil {
		return nil, fmt.Errorf("%w: segment footer", ErrCorrupt)
	}
	return m, nil
}

// readFooter reads and decodes the footer of the segment file behind r
// (total size fileSize). Returns (nil, dataEnd=fileSize, nil) when the
// file carries no footer.
func readFooter(r io.ReaderAt, fileSize int64) (*SegmentMeta, int64, error) {
	if fileSize < segHeaderSize+footerTrailerSize {
		return nil, fileSize, nil
	}
	trailer := make([]byte, footerTrailerSize)
	if _, err := r.ReadAt(trailer, fileSize-footerTrailerSize); err != nil && err != io.EOF {
		return nil, fileSize, err
	}
	if !bytes.Equal(trailer[8:], footerMagic) {
		return nil, fileSize, nil
	}
	plen := int64(binary.LittleEndian.Uint32(trailer))
	sum := binary.LittleEndian.Uint32(trailer[4:])
	dataEnd := fileSize - footerTrailerSize - plen
	if dataEnd < segHeaderSize {
		return nil, fileSize, fmt.Errorf("%w: footer length %d", ErrCorrupt, plen)
	}
	payload := make([]byte, plen)
	if _, err := r.ReadAt(payload, dataEnd); err != nil && err != io.EOF {
		return nil, fileSize, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fileSize, fmt.Errorf("%w: footer checksum", ErrCorrupt)
	}
	m, err := decodeFooterPayload(payload)
	if err != nil {
		return nil, fileSize, err
	}
	return m, dataEnd, nil
}
