package wal

import "repro/internal/dfs"

// Read-ahead: a LIMIT scan that stops after a few rows reads one small
// first refill per segment; a sweep doubles it with the distance it has
// travelled up to a cap large enough that a clustered scan, switching
// the disk head between several sorted segments, stays transfer-bound.
const (
	scanFirstRefill = 64 << 10
	scanMaxRefill   = 2 << 20
)

// readAhead is the next refill's size for a stream that has travelled
// n bytes in its segment.
func readAhead(n int64) int {
	return int(min(max(n, scanFirstRefill), scanMaxRefill))
}

// Scanner is the log's one sequential reader: replay, compaction, the
// garbage audit, the changefeed catch-up, the index-less full scan and
// the clustered scan all read the log front to back through it (paper
// §3.1, §3.6.4, §3.8). It pins a list of segments, each to the end its
// record area had when the scanner was made, and walks them in order
// through one readWindow, so a sweep is contiguous I/O: one seek per
// segment plus transfer.
//
// Next checks each frame into a View of the window: reading a record
// copies nothing, and View().Record() is the one copy, for what the
// caller keeps. Next returning false, or Close, releases the pins and
// the pooled window buffer.
type Scanner struct {
	l     *Log
	spans []span
	one   [1]span // backs spans for a one-segment scanner
	end   Position

	i          int         // the span being read
	r          *dfs.Reader // its reader; nil until opened
	start, off int64       // where its stream began (the read-ahead ramp), and the next frame

	win     readWindow
	scratch *[]byte // the pooled buffer behind win; nil once released

	v   View
	ptr Ptr
	err error
}

// span is one pinned segment of a scan: its record area from from to
// end. tail: the segment was open for append when the scan was made, so
// a torn frame there ends its data rather than reporting corruption.
type span struct {
	num       uint32
	from, end int64
	tail      bool
}

// NewScanner returns a scanner over the log from `from` (the zero value
// is the start of the log) to its end as the call finds it: every live
// segment from from.Seg on, each to its current record-area end. That
// covers the segment open for append up to End() and the compaction
// output numbered above it; records appended later are left to a later
// scanner.
func (l *Log) NewScanner(from Position) *Scanner {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanLocked(from)
}

func (l *Log) scanLocked(from Position) *Scanner {
	s := &Scanner{l: l, spans: make([]span, 0, len(l.order)), end: l.endLocked()}
	for _, n := range l.order {
		if n >= from.Seg {
			s.spans = append(s.spans, l.spanLocked(n, 0))
		}
	}
	if len(s.spans) > 0 && s.spans[0].num == from.Seg {
		s.spans[0].from = max(from.Off, segHeaderSize)
	}
	return s.begin()
}

// OpenSegmentScanner returns a scanner over segment num from byte
// offset from (anything below the header means the first record). from
// must be a record boundary, typically a Ptr.Off.
func (l *Log) OpenSegmentScanner(num uint32, from int64) (*Scanner, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, err := l.readerLocked(num)
	if err != nil {
		return nil, err
	}
	s := &Scanner{l: l, r: r, end: l.endLocked()}
	s.one[0] = l.spanLocked(num, from)
	s.spans = s.one[:]
	return s.begin(), nil
}

// spanLocked pins segment num and returns its span from offset from.
func (l *Log) spanLocked(num uint32, from int64) span {
	st := l.segs[num]
	st.pins++
	return span{num: num, from: max(from, segHeaderSize), end: st.dataEnd, tail: num == l.cur}
}

// begin takes the window buffer from the pool ReadValues uses and
// positions s at its first span.
func (s *Scanner) begin() *Scanner {
	s.scratch = readScratch.Get().(*[]byte)
	s.win.buf = (*s.scratch)[:0]
	if len(s.spans) > 0 {
		s.start, s.off = s.spans[0].from, s.spans[0].from
	}
	return s
}

// Rescan returns a second scanner over the same segments, starts and
// ends as s: a two-pass reader's second pass reads exactly what its
// first did, whatever was appended or compacted in between. Call it
// while s still holds its pins.
func (s *Scanner) Rescan() *Scanner {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	for _, sp := range s.spans {
		s.l.segs[sp.num].pins++
	}
	return (&Scanner{l: s.l, spans: s.spans, end: s.end}).begin()
}

// End returns Log.End as the scanner's making found it: where a scan
// stops in the segment open for append, and so where the next begins.
func (s *Scanner) End() Position { return s.end }

// Close releases the segment pins and returns the window buffer to its
// pool. Idempotent; Next returning false calls it.
func (s *Scanner) Close() {
	if s.scratch == nil {
		return
	}
	for _, sp := range s.spans {
		s.l.Unpin(sp.num)
	}
	*s.scratch = s.win.buf[:0] // a refill may have grown it
	readScratch.Put(s.scratch)
	s.scratch, s.win, s.r = nil, readWindow{}, nil
}

// Next advances to the next frame, returning false at the end of the
// last segment or on error (check Err), after releasing the scanner.
func (s *Scanner) Next() bool {
	for s.scratch != nil && s.err == nil && s.i < len(s.spans) {
		sp := &s.spans[s.i]
		if s.r == nil {
			if s.r, s.err = s.l.reader(sp.num); s.err != nil {
				break
			}
		}
		if s.off < sp.end {
			if s.err = s.win.frame(s.r, sp.num, s.off, sp.end, readAhead(s.off-s.start), sp.tail, &s.v.f); s.err != nil {
				break
			}
			if n := s.v.f.size; n > 0 {
				s.ptr = Ptr{Seg: sp.num, Off: s.off, Len: uint32(n)}
				s.off += int64(n)
				return true
			}
		}
		// The segment's data ended (a torn tail of the active segment
		// included): go on with the next one.
		if s.i++; s.i < len(s.spans) {
			s.r, s.start, s.off = nil, s.spans[s.i].from, s.spans[s.i].from
			s.win.reset()
		}
	}
	s.Close()
	return false
}

// ValueAt checks the frame at p and returns its value, moving the
// scanner just past it. It reads forward only, and parses nothing but
// p's frame: a p within one read-ahead of what the window holds is
// reached by reading through the gap (no seek), a farther one by a jump
// to p. ok=false, with a nil error, means p is not this scanner's to
// read — another segment's, past the record area, behind the position,
// or the scanner is released — and the caller resolves it another way.
//
// The value is a view of the scanner's window, CRC-checked, nil for a
// delete frame. It is valid until the next call on the scanner: a
// caller that keeps it copies it.
func (s *Scanner) ValueAt(p Ptr) ([]byte, bool, error) {
	if s.err != nil || s.r == nil {
		return nil, false, s.err
	}
	sp := &s.spans[s.i]
	if p.Seg != sp.num || p.Off < s.off || p.Off >= sp.end {
		return nil, false, nil
	}
	if s.err = s.win.frame(s.r, sp.num, p.Off, sp.end, readAhead(s.off-s.start), sp.tail, &s.v.f); s.err != nil || s.v.f.size == 0 {
		return nil, false, s.err
	}
	s.off = p.Off + int64(s.v.f.size)
	return s.v.f.value, true, nil
}

// View returns the current frame, valid until the next call on the
// scanner.
func (s *Scanner) View() *View { return &s.v }

// Ptr returns the current frame's location.
func (s *Scanner) Ptr() Ptr { return s.ptr }

// Err returns the first error encountered.
func (s *Scanner) Err() error { return s.err }
