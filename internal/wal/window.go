package wal

import (
	"encoding/binary"
	"errors"
	"io"
)

// readWindow is the contiguous read-ahead buffer and frame walker shared
// by the Scanner and VerifySegment. Refills carry the unconsumed tail (a
// partial frame) to the front and read the next chunk from exactly where
// the previous physical read ended, so a sweep is contiguous I/O — no
// per-chunk seek charge on the modelled disk, and no re-read of the tail
// bytes. The buffer is reused across refills (and segment switches) and
// only grows with chunk: a view from frame aliases it until the next
// call, so what a caller keeps it copies out (View.Record). The Scanner
// hands the buffer back to a pool when it is released.
type readWindow struct {
	buf      []byte
	bufStart int64
}

// reset empties the buffer, keeping its capacity (called on segment
// switch).
func (w *readWindow) reset() {
	w.buf = w.buf[:0]
	w.bufStart = 0
}

// at returns at least want bytes starting at off (or everything up to
// end), refilling from r in chunk-sized contiguous reads. An off past
// the buffer's end by at most one chunk is read through: the refill
// starts where the previous read ended, so a short forward skip costs
// transfer, not a seek. A farther off (or an empty buffer) reads from
// off itself.
func (w *readWindow) at(r io.ReaderAt, off, end int64, want, chunk int) ([]byte, error) {
	rel := off - w.bufStart
	var tail []byte
	if rel >= 0 && rel < int64(len(w.buf)) {
		tail = w.buf[rel:]
	}
	if len(tail) >= want {
		return tail, nil
	}
	readFrom := off
	if bufEnd := w.bufStart + int64(len(w.buf)); tail != nil || (len(w.buf) > 0 && off > bufEnd && off-bufEnd <= int64(chunk)) {
		readFrom = bufEnd
	}
	// From readFrom, off+want lies off-readFrom+want bytes on (fewer than
	// want when the tail already holds some of them).
	n := int64(max(chunk, int(off-readFrom)+want))
	if rem := end - readFrom; n > rem {
		n = rem
	}
	size := len(tail) + int(n)
	buf := w.buf[:cap(w.buf)]
	if len(buf) < size {
		// Headroom for the partial frame carried in front of the next
		// chunk, so refills of the same chunk size reuse this buffer.
		buf = make([]byte, size, size+chunk/8)
	}
	copy(buf, tail) // the tail may overlap buf's front: copy is a memmove
	m, err := r.ReadAt(buf[len(tail):size], readFrom)
	if err != nil && err != io.EOF {
		w.reset() // the shifted tail no longer matches bufStart
		return nil, err
	}
	w.buf = buf[:len(tail)+m]
	w.bufStart = readFrom - int64(len(tail))
	// A short read (end of file) can stop before a read-through reaches
	// off: that is an empty window, which the frame decode reports torn.
	return w.buf[min(off-w.bufStart, int64(len(w.buf))):], nil
}

// frame fetches the frame at off in segment seg, whose record area ends
// at end, refilling in chunk-sized reads, and checks it into f
// (parseFrame). f aliases the window: it is valid until the next call.
// f.size 0 with a nil error means a torn frame ended the data, which
// only tail allows: the segment was open for append, and its in-flight
// write died mid-frame unacknowledged. Any other torn frame, and any
// corrupt one, is a *CorruptionError locating it — durable, possibly
// acknowledged records are damaged, and treating the damage as an end
// would silently drop every record after it.
func (w *readWindow) frame(r io.ReaderAt, seg uint32, off, end int64, chunk int, tail bool, f *frameView) error {
	frame, err := w.at(r, off, end, frameHeaderSize, chunk)
	if err != nil {
		return err
	}
	if len(frame) >= frameHeaderSize {
		if n := frameHeaderSize + int(binary.LittleEndian.Uint32(frame)); len(frame) < n {
			if frame, err = w.at(r, off, end, n, chunk); err != nil {
				return err
			}
		}
	}
	err = parseFrame(frame, f)
	if err == nil || errors.Is(err, ErrTorn) && tail {
		return nil
	}
	return &CorruptionError{Segment: seg, Off: off, Err: err}
}
