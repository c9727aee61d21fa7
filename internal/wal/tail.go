package wal

import (
	"encoding/binary"
	"errors"
	"sort"
)

// tailBytes caps the in-memory tail: the frame batches of the log's
// last min(SegmentSize, tailBytes) appended bytes, kept as Append wrote
// them to the DFS, so a follower that keeps up (a changefeed, a
// replica's shipping feed) reads new records from memory (Follow). One
// that falls further behind gets ErrFellOff and reads its gap from the
// segments (PinRetained). Appends do no per-follower work: they keep
// their batch and, only when a follower waits, close one channel.
const tailBytes = 8 << 20

// tailBatch is one appended frame batch: consecutive LSNs from first.
// Its bytes never change once kept.
type tailBatch struct {
	first uint64
	buf   []byte
}

// ErrFellOff reports that the in-memory tail no longer holds a
// follower's next record: it must read the gap from the segments.
var ErrFellOff = errors.New("wal: follower fell off the in-memory tail")

// keepLocked adds a written batch to the tail, evicts the oldest
// batches beyond the bound and wakes any waiting follower.
func (l *Log) keepLocked(first uint64, batch []byte) {
	if len(batch) == 0 {
		return
	}
	l.tail = append(l.tail, tailBatch{first: first, buf: batch})
	l.tailSize += len(batch)
	for bound := int(min(l.opts.SegmentSize, tailBytes)); l.tailSize > bound; {
		l.tailSize -= len(l.tail[0].buf)
		l.tail[0] = tailBatch{}
		l.tail = l.tail[1:]
	}
	if l.tailMoved != nil {
		close(l.tailMoved)
		l.tailMoved = nil
	}
}

// tailFirstLocked is the tail's first LSN: every record below it is
// only in the segments, every record from it on is in the tail.
func (l *Log) tailFirstLocked() uint64 {
	if len(l.tail) > 0 {
		return l.tail[0].first
	}
	return l.nextLSN
}

// PinRetained returns a scanner over every live segment, as
// NewScanner(Position{}) does, with two LSNs read in the same step:
// tail, below which every record is only in the scanner's segments
// (from it on the in-memory tail holds them all), and next, below which
// every record is in the scanner's segments.
func (l *Log) PinRetained() (sc *Scanner, tail, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanLocked(Position{}), l.tailFirstLocked(), l.nextLSN
}

// View is one CRC-checked frame, read in place: a frame of the
// in-memory tail (Follower), of a Scanner's window or of a buffer
// (Parse). Its accessors alias the frame bytes, so they are valid only
// as long as the view; Record copies it out.
type View struct{ f frameView }

// Parse checks the frame at the front of b into v, with the checks
// Decode makes but copying nothing: v aliases b. It returns the frame's
// length.
func (v *View) Parse(b []byte) (int, error) {
	err := parseFrame(b, &v.f)
	return v.f.size, err
}

func (v *View) Kind() Kind     { return v.f.kind }
func (v *View) LSN() uint64    { return v.f.lsn }
func (v *View) TxnID() uint64  { return v.f.txnID }
func (v *View) TS() int64      { return v.f.ts }
func (v *View) Table() []byte  { return v.f.table }
func (v *View) Tablet() []byte { return v.f.tablet }
func (v *View) Group() []byte  { return v.f.group }
func (v *View) Key() []byte    { return v.f.key }
func (v *View) Value() []byte  { return v.f.value }
func (v *View) Record() Record { return v.f.record() }

// Follower reads the in-memory tail forward (Log.Follow).
type Follower struct {
	l    *Log
	next uint64 // the LSN to read next
	buf  []byte // unread frames of the batch being read
	v    View
}

// Follow returns a follower of the in-memory tail from LSN from on.
func (l *Log) Follow(from uint64) *Follower {
	return &Follower{l: l, next: max(from, 1)}
}

// Next returns the next frame. The view is valid until the next call.
// With every appended frame read it returns a nil view and a channel
// that the next append closes. ErrFellOff means the tail evicted the
// follower's next record before it was read.
func (fl *Follower) Next() (*View, <-chan struct{}, error) {
	if len(fl.buf) == 0 {
		var wait <-chan struct{}
		var err error
		if fl.buf, wait, err = fl.l.tailFrom(fl.next); len(fl.buf) == 0 {
			return nil, wait, err
		}
	}
	if err := parseFrame(fl.buf, &fl.v.f); err != nil {
		return nil, nil, err
	}
	fl.buf = fl.buf[fl.v.f.size:]
	fl.next = fl.v.f.lsn + 1
	return &fl.v, nil, nil
}

// tailFrom returns the tail's frames from LSN next to the end of their
// batch or, with none appended yet, the channel the next append closes.
func (l *Log) tailFrom(next uint64) (buf []byte, wait <-chan struct{}, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next < l.tailFirstLocked() {
		return nil, nil, ErrFellOff
	}
	// The last batch starting at or below next, then the later ones: a
	// failed append leaves LSNs that no batch holds.
	for i := max(sort.Search(len(l.tail), func(i int) bool { return l.tail[i].first > next })-1, 0); i < len(l.tail) && len(buf) == 0; i++ {
		buf = l.tail[i].buf
		for lsn := l.tail[i].first; lsn < next && len(buf) > 0; lsn++ {
			buf = buf[frameHeaderSize+int(binary.LittleEndian.Uint32(buf)):]
		}
	}
	if len(buf) == 0 {
		if l.tailMoved == nil {
			l.tailMoved = make(chan struct{})
		}
		wait = l.tailMoved
	}
	return buf, wait, nil
}
