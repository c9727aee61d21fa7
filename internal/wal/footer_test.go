package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dfs"
)

func footerTestLog(t *testing.T) (*dfs.DFS, *Log) {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 2, BlockSize: 1 << 20})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	l, err := Open(fs, "log/t", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return fs, l
}

func sortedRecord(i int) *Record {
	return &Record{
		Kind: KindWrite, Table: "tab", Tablet: "tab/0000", Group: "g",
		Key: []byte(fmt.Sprintf("key%06d", i)), TS: int64(i + 1),
		Value: bytes.Repeat([]byte{byte(i)}, 100), LSN: uint64(i + 1),
	}
}

func writeSortedSegment(t *testing.T, l *Log, n int) []uint32 {
	t.Helper()
	sw := l.NewSegmentWriter()
	for i := 0; i < n; i++ {
		if _, err := sw.Append(sortedRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return sw.Segments()
}

func TestSegmentFooterRoundtrip(t *testing.T) {
	fs, l := footerTestLog(t)
	nums := writeSortedSegment(t, l, 1000)
	if len(nums) != 1 {
		t.Fatalf("wrote %d segments, want 1", len(nums))
	}
	check := func(l *Log, where string) {
		meta := l.SegmentMeta(nums[0])
		if meta == nil {
			t.Fatalf("%s: no footer meta", where)
		}
		if got := string(meta.Min.Key); got != "key000000" {
			t.Errorf("%s: min key %q", where, got)
		}
		if got := string(meta.Max.Key); got != "key000999" {
			t.Errorf("%s: max key %q", where, got)
		}
	}
	check(l, "writer")

	// A reopened log must decode the footer from disk.
	l2, err := Open(fs, "log/t", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	check(l2, "reopen")

	// The footer bytes must be invisible to record scans.
	sc := l2.NewScanner(Position{})
	n := 0
	for sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan over footed segment: %v", err)
	}
	if n != 1000 {
		t.Errorf("scan saw %d records, want 1000", n)
	}
}

// TestSegmentFooterChecksumAndTornTrailer: a footer whose payload was
// damaged fails its CRC, and a segment whose trailer is torn off reads
// as having no footer, its record area running to the end of the file.
func TestSegmentFooterChecksumAndTornTrailer(t *testing.T) {
	meta := &SegmentMeta{
		Min: RecordKey{Table: "t", Group: "g", Key: []byte("b")},
		Max: RecordKey{Table: "t", Group: "g", Key: []byte("m")},
	}
	file := append(make([]byte, segHeaderSize), encodeFooter(meta)...)
	got, dataEnd, err := readFooter(bytes.NewReader(file), int64(len(file)))
	if err != nil || dataEnd != segHeaderSize || got == nil ||
		string(got.Min.Key) != "b" || string(got.Max.Key) != "m" {
		t.Fatalf("intact footer = %+v, dataEnd %d, %v", got, dataEnd, err)
	}

	flipped := bytes.Clone(file)
	flipped[segHeaderSize+2] ^= 1
	if _, _, err := readFooter(bytes.NewReader(flipped), int64(len(flipped))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("footer with a flipped payload bit = %v, want ErrCorrupt", err)
	}

	torn := file[:len(file)-1]
	got, dataEnd, err = readFooter(bytes.NewReader(torn), int64(len(torn)))
	if err != nil || got != nil || dataEnd != int64(len(torn)) {
		t.Fatalf("torn trailer = %+v, dataEnd %d, %v; want no footer, dataEnd %d", got, dataEnd, err, len(torn))
	}
}

func TestSegmentMetaCovers(t *testing.T) {
	m := &SegmentMeta{
		Min: RecordKey{Table: "t", Group: "g", Key: []byte("b")},
		Max: RecordKey{Table: "t", Group: "g", Key: []byte("m")},
	}
	cases := []struct {
		start, end string
		want       bool
	}{
		{"", "", true},
		{"a", "c", true},
		{"m", "", true},
		{"n", "", false},
		{"", "b", false}, // end exclusive: [.., "b") cannot include "b"
		{"", "c", true},
		{"c", "d", true},
	}
	for _, c := range cases {
		var start, end []byte
		if c.start != "" {
			start = []byte(c.start)
		}
		if c.end != "" {
			end = []byte(c.end)
		}
		if got := m.Covers("t", "g", start, end); got != c.want {
			t.Errorf("Covers[%q,%q) = %v, want %v", c.start, c.end, got, c.want)
		}
	}
	if m.Covers("t", "other", nil, nil) {
		t.Error("Covers matched the wrong column group")
	}
	if m.Covers("u", "g", nil, nil) {
		t.Error("Covers matched the wrong table")
	}
}

func TestSegmentPinningDefersDeletion(t *testing.T) {
	fs, l := footerTestLog(t)
	nums := writeSortedSegment(t, l, 100)
	num := nums[0]
	path := l.SegmentPath(num)

	sc, err := l.OpenSegmentScanner(num, 0)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	if err := l.RemoveSegments(false, num); err != nil {
		t.Fatalf("RemoveSegments: %v", err)
	}
	// Removed from the live set immediately...
	for _, si := range l.Segments() {
		if si.Num == num {
			t.Fatal("doomed segment still listed live")
		}
	}
	// ...but the file survives and the pinned scanner still reads it.
	if !fs.Exists(path) {
		t.Fatal("pinned segment file deleted under the scanner")
	}
	n := 0
	for sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan of doomed segment: %v", err)
	}
	if n != 100 {
		t.Fatalf("scan of doomed segment saw %d records, want 100", n)
	}
	sc.Close()
	if fs.Exists(path) {
		t.Fatal("doomed segment not deleted after the last unpin")
	}
	// Idempotent close.
	sc.Close()
}

func TestReadBatchPinsDoomedSegment(t *testing.T) {
	fs, l := footerTestLog(t)
	recs := make([]*Record, 50)
	for i := range recs {
		recs[i] = sortedRecord(i)
	}
	ptrs, err := l.Append(recs...)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.Rotate()
	num := ptrs[0].Seg
	// Pin (as a long scan would), doom the segment, then batch-read.
	l.Pin(num)
	if err := l.RemoveSegments(false, num); err != nil {
		t.Fatalf("RemoveSegments: %v", err)
	}
	got, err := l.ReadBatch(ptrs)
	if err != nil {
		t.Fatalf("ReadBatch on doomed pinned segment: %v", err)
	}
	for i, r := range got {
		if string(r.Key) != string(recs[i].Key) {
			t.Fatalf("record %d key %q, want %q", i, r.Key, recs[i].Key)
		}
	}
	l.Unpin(num)
	if fs.Exists(l.SegmentPath(num)) {
		t.Fatal("segment survived after last unpin")
	}
}
