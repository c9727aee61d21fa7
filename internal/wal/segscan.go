package wal

import (
	"fmt"

	"repro/internal/dfs"
)

// segScanChunkSize caps the SegmentScanner read-ahead. Larger than the
// log Scanner's: a clustered scan reads several sorted segments forward
// at once, and each switch between them moves the disk head, so fewer,
// bigger refills keep a long scan transfer-bound instead of seek-bound.
const segScanChunkSize = 2 << 20

// segScanFirstRefill is the SegmentScanner's first read-ahead: small
// enough that a LIMIT scan stopping after a few rows reads kilobytes.
const segScanFirstRefill = 64 << 10

// SegmentScanner reads one segment's records forward, without touching
// the per-key index — the clustered read path over sorted segments
// (paper §3.6.4: post-compaction scans are sequential reads). Next
// streams every record; ValueAt checks only the frame a pointer names,
// skipping forward to it, and hands out a view of its value. It pins
// the segment for its lifetime, so a concurrent compaction cannot
// delete the file underneath it; always Close.
//
// Refills are contiguous (the partial frame at the buffer tail is
// carried over, never re-read), so a full stream costs one seek per
// refill at most and pure sequential transfer otherwise. The read-ahead
// grows with the stream: the first refill is 64 KB
// (segScanFirstRefill), each later one is as large as the stream has
// travelled so far, capped at segScanChunkSize. A LIMIT scan that stops
// after a few rows therefore reads kilobytes per segment, while a full
// scan reaches the 2 MB refill after a handful of doublings. The window
// buffer comes from the pool ReadValues uses and goes back on Close.
type SegmentScanner struct {
	l     *Log
	num   uint32
	r     *dfs.Reader
	end   int64 // record-area end (footer excluded)
	start int64 // where the stream began
	off   int64
	// tail: the segment was open for append when the scanner opened, so
	// a torn frame there ends its data rather than reporting corruption.
	tail bool

	win     readWindow
	scratch *[]byte // the pooled buffer behind win; nil once closed

	rec Record
	ptr Ptr
	err error
}

// OpenSegmentScanner returns a scanner over segment num starting at
// byte offset from (0 or anything below the header means "from the
// first record"). from must be a record boundary — typically a Ptr.Off.
func (l *Log) OpenSegmentScanner(num uint32, from int64) (*SegmentScanner, error) {
	l.mu.Lock()
	st, ok := l.segs[num]
	if !ok {
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: segment %d not live", num)
	}
	st.pins++
	end, tail := st.dataEnd, num == l.cur
	r, err := l.readerLocked(num)
	l.mu.Unlock()
	if err != nil {
		l.Unpin(num)
		return nil, err
	}
	if from < segHeaderSize {
		from = segHeaderSize
	}
	scratch := readScratch.Get().(*[]byte)
	return &SegmentScanner{l: l, num: num, r: r, end: end, start: from, off: from, tail: tail,
		win: readWindow{buf: (*scratch)[:0]}, scratch: scratch}, nil
}

// Close releases the segment pin and returns the window buffer to its
// pool. Idempotent.
func (s *SegmentScanner) Close() {
	if s.scratch == nil {
		return
	}
	s.l.Unpin(s.num)
	*s.scratch = s.win.buf[:0] // a refill may have grown it
	readScratch.Put(s.scratch)
	s.scratch, s.win = nil, readWindow{}
}

// readAhead is the next refill's size: what the stream has travelled so
// far, at least segScanFirstRefill and at most segScanChunkSize.
func (s *SegmentScanner) readAhead() int {
	return min(max(int(s.off-s.start), segScanFirstRefill), segScanChunkSize)
}

// Next advances to the next record, returning false at the end of the
// record area or on error (check Err). Exhaustion does NOT unpin — the
// caller may still resolve Ptrs into the segment; Close does.
func (s *SegmentScanner) Next() bool {
	if s.err != nil || s.off >= s.end {
		return false
	}
	rec, n, err := s.win.next(s.r, s.num, s.off, s.end, s.readAhead(), s.tail)
	if err != nil || n == 0 {
		s.err = err
		return false
	}
	s.rec = rec
	s.ptr = Ptr{Seg: s.num, Off: s.off, Len: uint32(n)}
	s.off += int64(n)
	return true
}

// ValueAt checks the frame at p and returns its value, moving the
// scanner just past it. It reads forward only, and parses nothing but
// p's frame: a p within one read-ahead of what the window holds is
// reached by reading through the gap (no seek), a farther one by a jump
// to p. ok=false, with a nil error, means p is not this scanner's to
// read — another segment's, past the record area, or behind the
// position — and the caller resolves it another way.
//
// The value is a view of the scanner's window, CRC-checked, nil for a
// delete frame. It is valid until the next call on the scanner: a
// caller that keeps it copies it.
func (s *SegmentScanner) ValueAt(p Ptr) ([]byte, bool, error) {
	if s.err != nil {
		return nil, false, s.err
	}
	if p.Seg != s.num || p.Off < s.off || p.Off >= s.end {
		return nil, false, nil
	}
	var f frameView
	if err := s.win.frame(s.r, s.num, p.Off, s.end, s.readAhead(), s.tail, &f); err != nil || f.size == 0 {
		s.err = err
		return nil, false, err
	}
	s.off = p.Off + int64(f.size)
	return f.value, true, nil
}

// Record returns the current record.
func (s *SegmentScanner) Record() Record { return s.rec }

// Ptr returns the current record's location.
func (s *SegmentScanner) Ptr() Ptr { return s.ptr }

// Err returns the first error encountered.
func (s *SegmentScanner) Err() error { return s.err }
