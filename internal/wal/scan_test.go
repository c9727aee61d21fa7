package wal

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dfs"
)

// bytesRead sums the modelled-disk bytes read across every datanode.
func bytesRead(fs *dfs.DFS) int64 {
	var n int64
	for i := 0; i < fs.NumDataNodes(); i++ {
		n += fs.DataNode(i).Disk().Stats().BytesRead
	}
	return n
}

// A record copied out of a Scanner's view or by ReadBatch owns its
// bytes: walking on through several read-ahead refills (which reuse the
// window's buffer) and several more batches (which reuse the pooled
// coalescing scratch) must leave a held record's key and value intact.
func TestDecodedRecordsSurviveBufferReuse(t *testing.T) {
	_, l := footerTestLog(t)
	const n = 3000 // ~400 KB of frames: several growing refills
	nums := writeSortedSegment(t, l, n)
	sc, err := l.OpenSegmentScanner(nums[0], 0)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	defer sc.Close()

	want := sortedRecord(0)
	if !sc.Next() {
		t.Fatalf("empty stream: %v", sc.Err())
	}
	held := sc.View().Record()
	ptrs := []Ptr{sc.Ptr()}
	for i := 1; sc.Next(); i++ {
		if rec := sc.View().Record(); string(rec.Key) != string(sortedRecord(i).Key) {
			t.Fatalf("record %d key %q, want %q", i, rec.Key, sortedRecord(i).Key)
		}
		ptrs = append(ptrs, sc.Ptr())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(ptrs) != n {
		t.Fatalf("streamed %d records, want %d", len(ptrs), n)
	}
	if !bytes.Equal(held.Key, want.Key) || !bytes.Equal(held.Value, want.Value) {
		t.Fatalf("held scanner record changed after later refills: key %q value[0] %d", held.Key, held.Value[0])
	}

	// Every batch is one coalesced run of the same size, so each reuses
	// the scratch the first one read into.
	batch, err := l.ReadBatch(ptrs[:400])
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	heldB := batch[0]
	for b := 1; b <= 5; b++ {
		lo := b * 500
		recs, err := l.ReadBatch(ptrs[lo : lo+400])
		if err != nil {
			t.Fatalf("ReadBatch %d: %v", b, err)
		}
		if got := recs[0].Value[0]; got != sortedRecord(lo).Value[0] {
			t.Fatalf("batch %d record 0 value byte %d, want %d", b, got, sortedRecord(lo).Value[0])
		}
	}
	if !bytes.Equal(heldB.Key, want.Key) || !bytes.Equal(heldB.Value, want.Value) {
		t.Fatalf("held batch record changed after later batches: key %q value[0] %d", heldB.Key, heldB.Value[0])
	}
}

// seeks sums the modelled-disk head movements across every datanode.
func seeks(fs *dfs.DFS) int64 {
	var n int64
	for i := 0; i < fs.NumDataNodes(); i++ {
		n += fs.DataNode(i).Disk().Stats().Seeks
	}
	return n
}

// segmentPtrs streams segment num from its head and returns every
// record's pointer.
func segmentPtrs(t *testing.T, l *Log, num uint32) []Ptr {
	t.Helper()
	sc, err := l.OpenSegmentScanner(num, 0)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	defer sc.Close()
	var ptrs []Ptr
	for sc.Next() {
		ptrs = append(ptrs, sc.Ptr())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return ptrs
}

// A one-segment scanner opened at a mid-segment record reads at most one
// sparse-index block before its first record, and its growing
// read-ahead still reads every byte of the rest of the stream exactly
// once.
func TestSegmentScannerFirstRefillIsOneSparseBlock(t *testing.T) {
	fs, l := footerTestLog(t)
	const n = 5000 // ~800 KB: the start sits several sparse blocks in
	nums := writeSortedSegment(t, l, n)
	ptrs := segmentPtrs(t, l, nums[0])
	from := ptrs[n/2].Off
	sc, err := l.OpenSegmentScanner(nums[0], from)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	defer sc.Close()

	before := bytesRead(fs)
	if !sc.Next() {
		t.Fatalf("empty stream: %v", sc.Err())
	}
	if got := bytesRead(fs) - before; got > scanFirstRefill {
		t.Fatalf("first record cost %d bytes read, want <= %d", got, scanFirstRefill)
	}
	if want := sortedRecord(n / 2).Key; !bytes.Equal(sc.View().Record().Key, want) {
		t.Fatalf("stream starts at %q, want %q", sc.View().Record().Key, want)
	}
	rows := 1
	for sc.Next() {
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if got, want := bytesRead(fs)-before, sc.spans[0].end-from; got != want {
		t.Fatalf("full stream read %d bytes, want exactly the %d bytes after the seek offset", got, want)
	}
	if rows != n-n/2 {
		t.Fatalf("streamed %d records from the start offset, want %d", rows, n-n/2)
	}
}

// ValueAt reads forward only. Two pointers within one read-ahead of each
// other cost one seek between them: the second is reached by reading
// through the gap. A pointer behind the position answers ok=false. A
// far pointer jumps: one more seek, and the gap is not read.
func TestSegmentScannerAtReadsForward(t *testing.T) {
	fs, l := footerTestLog(t)
	const n = 5000
	nums := writeSortedSegment(t, l, n)
	ptrs := segmentPtrs(t, l, nums[0])
	// first returns the first record at least dist bytes past record i.
	first := func(i int, dist int64) int {
		for j := i; j < len(ptrs); j++ {
			if ptrs[j].Off >= ptrs[i].Off+dist {
				return j
			}
		}
		t.Fatalf("no record %d bytes past record %d", dist, i)
		return 0
	}
	const a = 100
	// b lies past the first refill (one sparse block from a) but within
	// one read-ahead of its end; far lies several read-aheads past b.
	b := first(a, scanFirstRefill*3/2)
	far := first(b, 4*scanFirstRefill)

	sc, err := l.OpenSegmentScanner(nums[0], ptrs[a].Off)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	defer sc.Close()
	at := func(i int) {
		t.Helper()
		v, ok, err := sc.ValueAt(ptrs[i])
		if err != nil || !ok {
			t.Fatalf("ValueAt(record %d) = ok %v, err %v", i, ok, err)
		}
		if want := sortedRecord(i); !bytes.Equal(v, want.Value) {
			t.Fatalf("ValueAt(record %d) = %.8q, want %.8q", i, v, want.Value)
		}
	}

	seeks0, read0 := seeks(fs), bytesRead(fs)
	at(a)
	at(b)
	if got := seeks(fs) - seeks0; got != 1 {
		t.Fatalf("records %d and %d, %d bytes apart, cost %d seeks, want 1", a, b, ptrs[b].Off-ptrs[a].Off, got)
	}
	if got := bytesRead(fs) - read0; got <= scanFirstRefill {
		t.Fatalf("read %d bytes for two records past one refill, want a second (read-through) refill", got)
	}

	if _, ok, err := sc.ValueAt(ptrs[b-1]); ok || err != nil {
		t.Fatalf("ValueAt(record behind the position) = ok %v, err %v, want ok=false and no error", ok, err)
	}

	seeks1, read1 := seeks(fs), bytesRead(fs)
	at(far)
	if got := seeks(fs) - seeks1; got != 1 {
		t.Fatalf("a jump of %d bytes cost %d seeks, want 1", ptrs[far].Off-ptrs[b].Off, got)
	}
	if got, gap := bytesRead(fs)-read1, ptrs[far].Off-ptrs[b].Off; got >= gap {
		t.Fatalf("the jump read %d bytes, want fewer than the %d-byte gap", got, gap)
	}
}

// A sweep reads frames in place, so what it allocates depends on the
// segments it visits, not on the records in them: a copy per record
// would cost 5 allocations each. The same sweep over 10 K and over 40 K
// records of 256 B values allocates the same, give or take the few
// window buffers a -race build's sync.Pool drops on purpose. One DFS
// block holds either log, so the DFS's per-block read bookkeeping stays
// out of the count.
func TestScannerSweepAllocsPerSegment(t *testing.T) {
	sweepAllocs := func(records int) float64 {
		fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 16 << 20})
		if err != nil {
			t.Fatalf("dfs.New: %v", err)
		}
		l, err := Open(fs, "wal", Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		batch := make([]*Record, 1000)
		for i := 0; i < records; i += len(batch) {
			for j := range batch {
				batch[j] = &Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
					Key: fmt.Appendf(nil, "k%06d", i+j), TS: int64(i + j), Value: make([]byte, 256)}
			}
			if _, err := l.Append(batch...); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			sc := l.NewScanner(Position{})
			n := 0
			for sc.Next() {
				if len(sc.View().Value()) == 256 {
					n++
				}
			}
			if err := sc.Err(); err != nil || n != records {
				t.Fatalf("swept %d of %d records: %v", n, records, err)
			}
		})
	}
	small, large := sweepAllocs(10000), sweepAllocs(40000)
	t.Logf("sweep allocs: %v at 10 K records, %v at 40 K", small, large)
	if large > small+6 || large > 8 {
		t.Fatalf("sweep allocs: %v at 10 K records, %v at 40 K; want the same, and <= 8 for one segment", small, large)
	}
}
