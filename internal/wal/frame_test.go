package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// referenceDecode is a second, deliberately naive statement of what a
// valid frame is: the whole-record decode, field by field, with its
// own bounds checks. parseFrame and Decode must agree with it on every
// input — same frames accepted, same error class, same fields.
func referenceDecode(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < frameHeaderSize+n {
		return Record{}, 0, ErrTorn
	}
	p := b[frameHeaderSize : frameHeaderSize+n]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, ErrCorrupt
	}
	if len(p) < 25 {
		return Record{}, 0, ErrCorrupt
	}
	r := Record{Kind: Kind(p[0]), LSN: binary.LittleEndian.Uint64(p[1:]),
		TxnID: binary.LittleEndian.Uint64(p[9:]), TS: int64(binary.LittleEndian.Uint64(p[17:]))}
	p = p[25:]
	for _, s := range []*string{&r.Table, &r.Tablet, &r.Group} {
		if len(p) < 2 {
			return Record{}, 0, ErrCorrupt
		}
		l := int(binary.LittleEndian.Uint16(p))
		if p = p[2:]; len(p) < l {
			return Record{}, 0, ErrCorrupt
		}
		*s, p = string(p[:l]), p[l:]
	}
	for _, f := range []*[]byte{&r.Key, &r.Value} {
		if len(p) < 4 {
			return Record{}, 0, ErrCorrupt
		}
		l := binary.LittleEndian.Uint32(p)
		if p = p[4:]; l == math.MaxUint32 {
			continue // absent: stays nil
		}
		if uint64(len(p)) < uint64(l) {
			return Record{}, 0, ErrCorrupt
		}
		*f, p = append([]byte{}, p[:l]...), p[l:]
	}
	if len(p) != 0 || r.Kind < KindWrite || r.Kind > KindCheckpoint {
		return Record{}, 0, ErrCorrupt
	}
	return r, frameHeaderSize + n, nil
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTorn):
		return "torn"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return fmt.Sprintf("other(%v)", err)
}

// reframe wraps payload in a header with its true length and CRC, so a
// structural defect in it reaches the payload checks.
func reframe(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// checkFrameAgreement fails t unless parseFrame, Decode and
// referenceDecode agree on b.
func checkFrameAgreement(t testing.TB, b []byte) {
	t.Helper()
	want, wantN, wantErr := referenceDecode(b)
	var f frameView
	parseErr := parseFrame(b, &f)
	got, gotN, decErr := Decode(b)
	if errClass(parseErr) != errClass(wantErr) || errClass(decErr) != errClass(wantErr) {
		t.Fatalf("frame %x: parse %v, Decode %v, reference %v", b, parseErr, decErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if f.size != wantN || gotN != wantN {
		t.Fatalf("frame %x: parse size %d, Decode %d, reference %d", b, f.size, gotN, wantN)
	}
	if !reflect.DeepEqual(got, want) { // DeepEqual tells nil from empty
		t.Fatalf("frame %x: Decode %#v, reference %#v", b, got, want)
	}
}

// agreementBases are well-formed records: every Kind, nil and empty
// keys and values, and strings of several lengths.
func agreementBases() []Record {
	var out []Record
	for _, k := range []Kind{KindWrite, KindDelete, KindCommit, KindCheckpoint} {
		for _, kv := range [][2][]byte{{nil, nil}, {{}, {}}, {[]byte("k"), nil}, {nil, []byte("v")}, {[]byte("key"), []byte("value")}} {
			out = append(out, Record{Kind: k, LSN: 7, TxnID: 3, TS: -5,
				Table: "tbl", Tablet: "tbl/0", Group: "cg", Key: kv[0], Value: kv[1]})
		}
	}
	return append(out, Record{Kind: KindWrite, LSN: math.MaxUint64, Key: []byte{0}})
}

// agreementFrames are the frames both decoders are held to: each base
// frame, every truncation of it, every single-bit flip of it (header or
// payload, CRC left stale), every single-bit flip of its payload under
// a fresh CRC, an unknown kind, a trailing byte, a string length past
// the end, and the frame followed by unrelated bytes.
func agreementFrames() [][]byte {
	var out [][]byte
	for _, r := range agreementBases() {
		frame := Encode(&r)
		payload := frame[frameHeaderSize:]
		out = append(out, frame, append(append([]byte(nil), frame...), 0xAB, 0xCD))
		for i := range frame {
			out = append(out, frame[:i])
		}
		for bit := 0; bit < 8*len(frame); bit++ {
			flipped := append([]byte(nil), frame...)
			flipped[bit/8] ^= 1 << (bit % 8)
			out = append(out, flipped)
			if bit >= 8*frameHeaderSize {
				out = append(out, reframe(flipped[frameHeaderSize:]))
			}
		}
		for _, kind := range []byte{0, byte(KindCheckpoint) + 1, 0xFF} {
			p := append([]byte(nil), payload...)
			p[0] = kind
			out = append(out, reframe(p))
		}
		out = append(out, reframe(append(append([]byte(nil), payload...), 0)))
		long := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint16(long[25:], math.MaxUint16) // the table name's length
		out = append(out, reframe(long))
	}
	return out
}

func TestFrameParseAgreesWithDecode(t *testing.T) {
	frames := agreementFrames()
	accepted := 0
	for _, b := range frames {
		checkFrameAgreement(t, b)
		if parseFrame(b, new(frameView)) == nil {
			accepted++
		}
	}
	// Both outcomes must be exercised, or agreement proves nothing.
	if accepted == 0 || accepted == len(frames) {
		t.Fatalf("%d of %d frames accepted", accepted, len(frames))
	}
}

// FuzzFrameParse holds the parser to the reference decode on arbitrary
// bytes, both as a raw frame and as a payload under a valid header.
// Plain `go test` runs the seed corpus: each base frame, its payload,
// and one of each defect — torn, stale CRC, unknown kind, trailing byte.
func FuzzFrameParse(f *testing.F) {
	for _, r := range agreementBases() {
		frame := Encode(&r)
		payload := frame[frameHeaderSize:]
		stale := append([]byte(nil), frame...)
		stale[len(stale)-1] ^= 1
		unknown := append([]byte(nil), payload...)
		unknown[0] = 0
		trailing := append(append([]byte(nil), payload...), 0)
		for _, seed := range [][]byte{frame, payload, frame[:len(frame)-1], stale, unknown, trailing} {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkFrameAgreement(t, b)
		checkFrameAgreement(t, reframe(b))
		checkCursorAgreement(t, b, reframe(b))
	})
}

// checkCursorAgreement appends the records that frames decode to (if
// any) to a fresh log and sweeps it with a Scanner: every View must
// read, accessor by accessor, as Decode reads the same bytes, and the
// pointers must tile the segment from its header to its end.
func checkCursorAgreement(t *testing.T, frames ...[]byte) {
	var recs []*Record
	for _, b := range frames {
		if rec, _, err := Decode(b); err == nil {
			recs = append(recs, &rec)
		}
	}
	if len(recs) == 0 {
		return
	}
	l, fs := newTestLog(t, Options{})
	if _, err := l.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	end := l.End()
	r, err := fs.Open(l.SegmentPath(end.Seg))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sc := l.NewScanner(Position{})
	n, off := 0, int64(segHeaderSize)
	for ; sc.Next(); n++ {
		p, v := sc.Ptr(), sc.View()
		if p.Seg != end.Seg || p.Off != off {
			t.Fatalf("frame %d at %v, want seg %d offset %d", n, p, end.Seg, off)
		}
		raw := make([]byte, p.Len)
		if _, err := r.ReadAt(raw, p.Off); err != nil {
			t.Fatalf("ReadAt %v: %v", p, err)
		}
		want, size, err := Decode(raw)
		if err != nil || size != int(p.Len) {
			t.Fatalf("Decode %v: %d bytes, %v", p, size, err)
		}
		got := Record{Kind: v.Kind(), LSN: v.LSN(), TxnID: v.TxnID(), TS: v.TS(),
			Table: string(v.Table()), Tablet: string(v.Tablet()), Group: string(v.Group()),
			Key: v.Key(), Value: v.Value()}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(v.Record(), want) {
			t.Fatalf("frame %d: view %#v, Record %#v, Decode %#v", n, got, v.Record(), want)
		}
		off += int64(p.Len)
	}
	if err := sc.Err(); err != nil || n != len(recs) || off != end.Off {
		t.Fatalf("swept %d of %d frames to offset %d of %d: %v", n, len(recs), off, end.Off, err)
	}
}

// TestAppendFrameInPlace: AppendFrame extends its caller's buffer with
// exactly FrameSize bytes that decode back to the record, leaves the
// bytes before them alone, and allocates nothing when the buffer has
// room.
func TestAppendFrameInPlace(t *testing.T) {
	buf := make([]byte, 0, 1<<10)
	for _, r := range agreementBases() {
		buf = append(buf[:0], "prefix"...)
		buf = AppendFrame(buf, &r)
		if string(buf[:6]) != "prefix" || len(buf)-6 != FrameSize(&r) {
			t.Fatalf("%+v: prefix %q, frame %d bytes, want %d", r, buf[:6], len(buf)-6, FrameSize(&r))
		}
		got, n, err := Decode(buf[6:])
		if err != nil || n != len(buf)-6 {
			t.Fatalf("%+v: Decode = %d bytes, %v", r, n, err)
		}
		if r.Kind == KindDelete {
			r.Value = nil // a delete carries no value
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip: got %#v, want %#v", got, r)
		}
	}
	r := agreementBases()[len(agreementBases())-2]
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], &r) }); allocs != 0 {
		t.Fatalf("AppendFrame into a buffer with room: %v allocs, want 0", allocs)
	}
}
