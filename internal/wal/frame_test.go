package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// referenceDecode is a second, deliberately naive statement of what a
// valid frame is: the whole-record decode, field by field, with its
// own varint reader and bounds checks. parseFrame and Decode must agree
// with it on every input — same frames accepted, same error class, same
// fields.
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
	ok := len(p) > 0
	// uvarint reads 7 bits a byte, low group first, and refuses more
	// than 64 bits, a missing last byte, and a zero last byte after the
	// first (a longer encoding than the value needs).
	uvarint := func() uint64 {
		var v uint64
		for i := 0; ok && i < 10; i++ {
			if i >= len(p) || (i == 9 && p[i] > 1) {
				break
			}
			c := p[i]
			v |= uint64(c&0x7f) << (7 * i)
			if c < 0x80 {
				ok = ok && (i == 0 || c != 0)
				p = p[i+1:]
				return v
			}
		}
		ok = false
		return 0
	}
	take := func(l uint64) []byte {
		if !ok || uint64(len(p)) < l {
			ok = false
			return nil
		}
		out := append([]byte{}, p[:l]...)
		p = p[l:]
		return out
	}
	var r Record
	if ok {
		r.Kind, p = Kind(p[0]), p[1:]
	}
	r.LSN, r.TxnID = uvarint(), uvarint()
	zz := uvarint()
	r.TS = int64(zz>>1) ^ -int64(zz&1)
	r.Table, r.Tablet, r.Group = string(take(uvarint())), string(take(uvarint())), string(take(uvarint()))
	for _, f := range []*[]byte{&r.Key, &r.Value} {
		if l := uvarint(); l > 0 {
			*f = take(l - 1)
		}
	}
	if !ok || len(p) != 0 || r.Kind < KindWrite || r.Kind > KindCheckpoint || (r.Kind == KindDelete && r.Value != nil) {
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
	if f.size != wantN || gotN != wantN || FrameSize(&got) != wantN {
		t.Fatalf("frame %x: parse size %d, Decode %d, FrameSize %d, reference %d", b, f.size, gotN, FrameSize(&got), wantN)
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
	return append(out,
		Record{Kind: KindWrite, LSN: math.MaxUint64, Key: []byte{0}},
		Record{Kind: KindCommit, LSN: math.MaxUint64, TxnID: math.MaxUint64, TS: math.MinInt64},
		Record{Kind: KindDelete, LSN: 1 << 21, TxnID: 127, TS: math.MaxInt64, Key: []byte("k")})
}

// malformedPayloads break the varint rules under a valid header: an
// overlong LSN (11 bytes, and 10 bytes past 64 bits), a truncated one,
// a non-minimal one, a non-minimal key length, and a table length past
// the end of the payload.
func malformedPayloads() [][]byte {
	tail := []byte{0, 0, 1, 't', 0, 0}
	frame := func(head ...byte) []byte {
		return reframe(append(append([]byte{byte(KindWrite)}, head...), tail...))
	}
	return [][]byte{
		frame(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0),
		frame(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0, 0),
		reframe([]byte{byte(KindWrite), 0x80}),
		frame(0x81, 0x00, 0, 0),
		reframe([]byte{byte(KindWrite), 1, 0, 0, 0, 0, 0, 0x82, 0x00, 'k', 0}),
		reframe([]byte{byte(KindWrite), 1, 0, 0, 0xFF, 0x7F}),
	}
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
	}
	return append(out, malformedPayloads()...)
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
// one of each defect — torn, stale CRC, unknown kind, trailing byte —
// and the malformed varints.
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
	for _, seed := range malformedPayloads() {
		f.Add(seed)
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

// TestFrameSizeExact: FrameSize is the length AppendFrame writes, for
// random records and for the extremes of every field — Log.Append sizes
// its batch and CatchUp its re-append batches from it.
func TestFrameSizeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	u64s := []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1 << 63, math.MaxUint64}
	i64s := []int64{0, -1, 1, -64, 63, 64, -65, math.MinInt64, math.MaxInt64}
	blobs := [][]byte{nil, {}, []byte("k"), make([]byte, 127), make([]byte, 128), make([]byte, 70_000)}
	strs := []string{"", "t", string(make([]byte, 200))}
	recs := append([]Record(nil), agreementBases()...)
	for i := 0; i < 2000; i++ {
		recs = append(recs, Record{
			Kind: Kind(1 + rng.Intn(4)), LSN: u64s[rng.Intn(len(u64s))] ^ uint64(rng.Intn(3)),
			TxnID: u64s[rng.Intn(len(u64s))], TS: i64s[rng.Intn(len(i64s))] + int64(rng.Intn(3)) - 1,
			Table: strs[rng.Intn(len(strs))], Tablet: strs[rng.Intn(len(strs))], Group: strs[rng.Intn(len(strs))],
			Key: blobs[rng.Intn(len(blobs))], Value: blobs[rng.Intn(len(blobs))],
		})
	}
	for _, r := range recs {
		frame := AppendFrame(nil, &r)
		if FrameSize(&r) != len(frame) {
			t.Fatalf("%v/%d/%d/%d: FrameSize %d, AppendFrame wrote %d", r.Kind, r.LSN, r.TxnID, r.TS, FrameSize(&r), len(frame))
		}
		got, n, err := Decode(frame)
		if r.Kind == KindDelete {
			r.Value = nil
		}
		if err != nil || n != len(frame) || !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip of %v/%d/%d/%d: %d bytes, %v", r.Kind, r.LSN, r.TxnID, r.TS, n, err)
		}
	}
}

// TestBenchmarkFrameSizes pins what a frame of the benchmark's record
// costs — table "t", tablet "t/0000", group "g", a 9-byte key and a
// 256-byte value, with LSN and timestamp at the top of their three-byte
// varint ranges — against 320 and 64 bytes with fixed-width fields.
func TestBenchmarkFrameSizes(t *testing.T) {
	w := Record{Kind: KindWrite, LSN: 1<<21 - 1, TS: 1<<20 - 1, Table: "t", Tablet: "t/0000", Group: "g",
		Key: []byte("k00000042"), Value: make([]byte, 256)}
	d := w
	d.Kind, d.Value = KindDelete, nil
	if n := len(Encode(&w)); n > 295 {
		t.Errorf("write frame: %d bytes, want <= 295", n)
	}
	if n := len(Encode(&d)); n > 38 {
		t.Errorf("delete frame: %d bytes, want <= 38", n)
	}
}
