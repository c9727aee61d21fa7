package index

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// TestEncodeRoundTripProperty: a decoded checkpoint holds exactly the
// entries encoded, and encodes back to the same bytes, for trees of
// keys with long shared prefixes, keys of the largest length a write
// accepts (65,535 bytes), many versions of one key, and every field at
// its extremes.
func TestEncodeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	long := bytes.Repeat([]byte{'z'}, math.MaxUint16)
	prefixes := [][]byte{nil, []byte("user/"), []byte("user/0001/"), long[:1000], long[:math.MaxUint16-1]}
	tss := []int64{math.MinInt64, -1, 0, 1, 1 << 20, math.MaxInt64}
	u64s := []uint64{0, 1, 1<<32 - 1, 1 << 40, math.MaxUint64}
	for round := 0; round < 40; round++ {
		tr := New()
		for i, n := 0, rng.Intn(700); i < n; i++ {
			p := prefixes[rng.Intn(len(prefixes))]
			key := append(append([]byte(nil), p...), "abc"[:rng.Intn(2)]...)
			if len(p) == math.MaxUint16-1 {
				key = append(key[:len(p)], byte(rng.Intn(3))) // exactly 65,535 bytes
			}
			versions := 1 + rng.Intn(3)
			if rng.Intn(50) == 0 {
				versions = 300
			}
			for v := 0; v < versions; v++ {
				tr.Put(Entry{Key: key, TS: tss[rng.Intn(len(tss))] + int64(v)*int64(rng.Intn(2)),
					Ptr: wal.Ptr{Seg: uint32(u64s[rng.Intn(3)]), Off: int64(u64s[rng.Intn(len(u64s))]), Len: uint32(u64s[rng.Intn(3)])},
					LSN: u64s[rng.Intn(len(u64s))]})
			}
		}
		var want []Entry
		tr.Ascend(func(e Entry) bool { want = append(want, e); return true })
		enc, n := tr.Encode(nil)
		back, err := Decode(enc)
		if err != nil || n != len(want) {
			t.Fatalf("round %d: Decode: %v (%d entries encoded, %d in the tree)", round, err, n, len(want))
		}
		var got []Entry
		back.Ascend(func(e Entry) bool { got = append(got, e); return true })
		if !sameEntries(got, want) {
			t.Fatalf("round %d: decoded tree differs from the encoded one", round)
		}
		checkShape(t, back)
		if again, _ := back.Encode(nil); !bytes.Equal(again, enc) {
			t.Fatalf("round %d: re-encoding the decoded tree changed its bytes", round)
		}
	}
}

// TestDecodeRefusesNonCanonical: every way to spell the golden entries
// other than Encode's is refused, so a decoded checkpoint re-encodes to
// its own bytes.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	golden, _ := hex.DecodeString(goldenEncoding)
	// Hand-spelled entries: shared, suffix length, suffix, ts, seg, off,
	// len, lsn.
	cases := map[string][]byte{
		"empty":              {},
		"count too high":     append([]byte{encodeFormat, 6}, golden[2:]...),
		"count too low":      append([]byte{encodeFormat, 4}, golden[2:]...),
		"trailing byte":      append(append([]byte(nil), golden...), 0),
		"truncated":          golden[:len(golden)-1],
		"non-minimal varint": {encodeFormat, 1, 0, 0, 0x80, 0x00, 0, 0, 0, 0},
		"seg past 32 bits":   {encodeFormat, 1, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0},
		"short prefix":       {encodeFormat, 2, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0},
		"prefix past key":    {encodeFormat, 2, 0, 1, 'a', 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0},
		"out of order":       {encodeFormat, 2, 0, 1, 'b', 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0},
		"duplicate version":  {encodeFormat, 2, 0, 1, 'a', 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode(%x) accepted", name, b)
		}
	}
	// The controls: "out of order" and "duplicate version" spelled
	// canonically.
	for _, b := range [][]byte{
		{encodeFormat, 2, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 1, 'b', 0, 0, 0, 0, 0},
		{encodeFormat, 2, 0, 1, 'a', 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0},
	} {
		if tr, err := Decode(b); err != nil {
			t.Errorf("Decode(%x): %v", b, err)
		} else if enc, _ := tr.Encode(nil); !bytes.Equal(enc, b) {
			t.Errorf("Decode(%x) re-encodes as %x", b, enc)
		}
	}
}

// FuzzIndexDecode holds Decode to the canonical form: whatever it
// accepts re-encodes to the same bytes, as many entries as it built.
// Plain `go test` runs the seed corpus: the golden bytes, the first
// format's, and a tree with long shared prefixes and many versions.
func FuzzIndexDecode(f *testing.F) {
	golden, _ := hex.DecodeString(goldenEncoding)
	v1, _ := hex.DecodeString(goldenEncodingV1)
	tr := New()
	for i := 0; i < 200; i++ {
		tr.Put(Entry{Key: []byte{'k', byte(i / 50), byte(i % 7)}, TS: int64(i % 5), LSN: uint64(i)})
	}
	enc, _ := tr.Encode(nil)
	for _, seed := range [][]byte{golden, v1, enc, {encodeFormat, 0}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Decode(b)
		if err != nil {
			return
		}
		enc, n := tr.Encode(nil)
		if !bytes.Equal(enc, b) || n != tr.Len() {
			t.Fatalf("Decode(%x) re-encodes %d entries as %x", b, n, enc)
		}
	})
}
