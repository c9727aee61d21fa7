package index

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/wal"
)

// TestEntryKeysSurviveWriters holds on to keys that RangeLatest,
// Versions and LatestAt return while a writer inserts (splitting leaves
// and rebuilding arenas) and deletes: every kept key must read the same
// afterwards, and an append to a kept key must not clobber the key after
// it. Run it under -race: readers read their keys outside the latch
// while the writer appends to the same arenas.
func TestEntryKeysSurviveWriters(t *testing.T) {
	const keys = 3000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	tr := New()
	for i := 0; i < keys; i += 2 {
		tr.Put(mkEntry(string(key(i)), 1, uint64(i+1)))
	}
	type kept struct{ view, want []byte }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	results := make([][]kept, 3)
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			keep := func(k []byte) {
				results[r] = append(results[r], kept{k, append([]byte(nil), k...)})
			}
			for len(results[r]) < 20000 {
				select {
				case <-stop:
					return
				default:
				}
				// Re-read an earlier key outside the latch, racing the writer.
				if ks := results[r]; len(ks) > 0 {
					if k := ks[rng.Intn(len(ks))]; !bytes.Equal(k.view, k.want) {
						t.Errorf("kept key changed while the writer ran: %q, was %q", k.view, k.want)
						return
					}
				}
				k := key(rng.Intn(keys))
				switch r {
				case 0:
					tr.RangeLatest(k, nil, 1<<62, func(e Entry) bool {
						keep(e.Key)
						return len(results[r])%8 != 0
					})
				case 1:
					for _, e := range tr.Versions(k, nil) {
						keep(e.Key)
					}
				case 2:
					if e, ok := tr.LatestAt(k, 1<<62); ok {
						keep(e.Key)
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		k := key(rng.Intn(keys))
		switch rng.Intn(4) {
		case 0:
			tr.DeleteKey(k)
		default:
			tr.Put(mkEntry(string(k), int64(rng.Intn(4)), uint64(keys+i)))
		}
	}
	close(stop)
	wg.Wait()
	total := 0
	for _, ks := range results {
		for _, k := range ks {
			if !bytes.Equal(k.view, k.want) {
				t.Fatalf("kept key changed: %q, was %q", k.view, k.want)
			}
		}
		total += len(ks)
	}
	if total == 0 {
		t.Fatal("no reader kept a key")
	}

	// Two neighbouring keys of one leaf: appending to the first must
	// reallocate rather than write over the second.
	var a, b []byte
	tr.RangeLatest(nil, nil, 1<<62, func(e Entry) bool {
		if a == nil {
			a = e.Key
			return true
		}
		b = e.Key
		return false
	})
	wantB := append([]byte(nil), b...)
	_ = append(a, "-clobber"...)
	if !bytes.Equal(b, wantB) {
		t.Fatalf("append to a returned key overwrote its neighbour: %q, was %q", b, wantB)
	}
	if e, ok := tr.Latest(wantB); !ok || !bytes.Equal(e.Key, wantB) {
		t.Fatalf("tree lost %q after an append to its neighbour", wantB)
	}
}

// goldenEncoding is what Encode writes for goldenEntries: format 2,
// varint fields and prefix-compressed keys. The checkpoint format must
// not change with the in-memory layout.
const goldenEncoding = "0205000005008080808080200002000300ff800a0311050400056170706c6502" +
	"01002a0105000e028020ac020900096b30303030303034328080808080808004ffffffff0f959aef3a80808080" +
	"08ffffffffffffffffff01"

// goldenEncodingV1 is the same entries in the first format (fixed-width
// fields, whole keys, no header), which Decode refuses.
const goldenEncodingV1 = "0000fdffffffffffffff000000000000000000010000000000000200000000000000" +
	"030000ff80050000000000000003000000110000000000000005000000040000000000000005006170706c6501" +
	"000000000000000100000000000000000000002a000000010000000000000005006170706c650700000000000000" +
	"0200000000100000000000002c010000090000000000000009006b30303030303034320000000000000400ffffff" +
	"ff15cd5b070000000000000080ffffffffffffffff"

var goldenEntries = []Entry{
	{Key: []byte(""), TS: -3, Ptr: wal.Ptr{Seg: 0, Off: 1 << 40, Len: 0}, LSN: 2},
	{Key: []byte{0, 255, 128}, TS: 5, Ptr: wal.Ptr{Seg: 3, Off: 17, Len: 5}, LSN: 4},
	{Key: []byte("apple"), TS: 1, Ptr: wal.Ptr{Seg: 1, Off: 0, Len: 42}, LSN: 1},
	{Key: []byte("apple"), TS: 7, Ptr: wal.Ptr{Seg: 2, Off: 4096, Len: 300}, LSN: 9},
	{Key: []byte("k00000042"), TS: 1 << 50, Ptr: wal.Ptr{Seg: 1<<32 - 1, Off: 123456789, Len: 1 << 31}, LSN: 1<<64 - 1},
}

func TestEncodeFormatGolden(t *testing.T) {
	golden, err := hex.DecodeString(goldenEncoding)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := hex.DecodeString(goldenEncodingV1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(v1); err == nil {
		t.Fatal("Decode accepted the first format's bytes")
	}
	tr, err := Decode(golden)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var got []Entry
	tr.Ascend(func(e Entry) bool { got = append(got, e); return true })
	if !sameEntries(got, goldenEntries) {
		t.Fatalf("decoded %v, want %v", got, goldenEntries)
	}
	if enc, n := tr.Encode(nil); n != len(goldenEntries) || !bytes.Equal(enc, golden) {
		t.Fatalf("re-encoded %d entries as %x, want %x", n, enc, golden)
	}
	// A tree built by puts, in another order, encodes the same bytes.
	put := New()
	for _, i := range []int{3, 0, 4, 2, 1} {
		put.Put(goldenEntries[i])
	}
	if enc, _ := put.Encode([]byte("x")); !bytes.Equal(enc[1:], golden) || enc[0] != 'x' {
		t.Fatalf("Encode after puts = %x, want %x after the prefix", enc, golden)
	}
}
