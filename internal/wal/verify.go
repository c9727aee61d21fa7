package wal

import "io"

// VerifySegment checks a raw segment image of the given size read via
// r: the header magic, every record frame (length, CRC, payload
// structure, kind: the checks Decode makes, through the same parser and
// read-ahead as a Scanner) and — for sorted segments — the footer
// trailer and its CRC. It copies no record out, so a sweep allocates per
// segment, not per record.
// activeTail marks the segment that was open for append when the image
// was taken; only there is a trailing torn frame expected (and
// accepted). The first defect is returned as a *CorruptionError
// locating it; a clean image returns nil.
//
// Open runs it to repair a torn tail; the scrubber runs it per replica
// so a single corrupt copy is pinned to one datanode while the healthy
// copies vouch for the data.
func VerifySegment(r io.ReaderAt, size int64, seg uint32, activeTail bool) error {
	hdr := make([]byte, segHeaderSize)
	if n, err := r.ReadAt(hdr, 0); err != nil && err != io.EOF {
		return err
	} else if n < segHeaderSize {
		return &CorruptionError{Segment: seg, Off: 0, Err: ErrTorn}
	}
	for i, m := range segMagic {
		if hdr[i] != m {
			return &CorruptionError{Segment: seg, Off: int64(i), Err: ErrCorrupt}
		}
	}
	dataEnd := size
	if hdr[6]&segFlagSorted != 0 {
		var err error
		if _, dataEnd, err = readFooter(r, size); err != nil {
			return &CorruptionError{Segment: seg, Off: size - footerTrailerSize, Err: err}
		}
	}
	var win readWindow
	var f frameView
	for off := int64(segHeaderSize); off < dataEnd; off += int64(f.size) {
		if err := win.frame(r, seg, off, dataEnd, readAhead(off-segHeaderSize), activeTail, &f); err != nil || f.size == 0 {
			return err
		}
	}
	return nil
}
