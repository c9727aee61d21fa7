package wal

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dfs"
)

func TestReadBatch(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 1, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	// Small segments force the batch to span several files.
	l, err := Open(fs, "log", Options{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 200
	ptrs := make([]Ptr, 0, n)
	for i := 0; i < n; i++ {
		rec := &Record{
			Kind:  KindWrite,
			Table: "t", Tablet: "t/0", Group: "g",
			Key: []byte(fmt.Sprintf("k%04d", i)), TS: int64(i),
			Value: bytes.Repeat([]byte{byte(i)}, 100),
		}
		p, err := l.Append(rec)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		ptrs = append(ptrs, p[0])
	}
	if len(l.Segments()) < 2 {
		t.Fatalf("want multiple segments, got %d", len(l.Segments()))
	}

	// Scramble the request order; results must come back in input order.
	req := make([]Ptr, n)
	for i := range req {
		req[i] = ptrs[(i*37)%n]
	}
	recs, err := l.ReadBatch(req)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		want := (i * 37) % n
		if string(rec.Key) != fmt.Sprintf("k%04d", want) || rec.TS != int64(want) {
			t.Fatalf("recs[%d] = key %q ts %d, want k%04d/%d", i, rec.Key, rec.TS, want, want)
		}
		if !bytes.Equal(rec.Value, bytes.Repeat([]byte{byte(want)}, 100)) {
			t.Fatalf("recs[%d] has wrong value", i)
		}
	}

	// Batch results must match one-at-a-time reads exactly.
	for i, p := range req[:20] {
		one, err := l.Read(p)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if one.LSN != recs[i].LSN || !bytes.Equal(one.Value, recs[i].Value) {
			t.Fatalf("batch/single mismatch at %d", i)
		}
	}
}

func TestReadBatchEmptyAndDuplicates(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 1, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	l, err := Open(fs, "log", Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if recs, err := l.ReadBatch(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty batch: recs=%v err=%v", recs, err)
	}
	p, err := l.Append(&Record{Kind: KindWrite, Key: []byte("k"), Value: []byte("v")})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	recs, err := l.ReadBatch([]Ptr{p[0], p[0], p[0]})
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	for i, r := range recs {
		if string(r.Value) != "v" {
			t.Fatalf("dup read %d = %q", i, r.Value)
		}
	}
}

// The value views ValueAt and ReadValues hand out equal the values
// Decode copies out, nil-ness included: a write's value, a write's empty
// value (non-nil), and a delete's nil.
func TestValueViewsMatchDecode(t *testing.T) {
	_, l := footerTestLog(t)
	recs := []*Record{
		{Kind: KindWrite, Table: "t", Group: "g", Key: []byte("a"), TS: 1, Value: []byte("value")},
		{Kind: KindWrite, Table: "t", Group: "g", Key: []byte("b"), TS: 2, Value: []byte{}},
		{Kind: KindDelete, Table: "t", Group: "g", Key: []byte("c"), TS: 3},
		{Kind: KindWrite, Table: "t", Group: "g", Key: []byte("d"), TS: 4, Value: bytes.Repeat([]byte("x"), 300)},
	}
	ptrs, err := l.Append(recs...)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := make([][]byte, len(ptrs))
	for i, p := range ptrs {
		rec, err := l.Read(p)
		if err != nil {
			t.Fatalf("Read %v: %v", p, err)
		}
		want[i] = rec.Value
	}
	if want[1] == nil || want[2] != nil {
		t.Fatalf("Decode values %q: want the empty value non-nil and the delete's nil", want)
	}
	same := func(how string, i int, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want[i]) || (got == nil) != (want[i] == nil) {
			t.Fatalf("%s record %d: view %q (nil %v), Decode %q (nil %v)", how, i, got, got == nil, want[i], want[i] == nil)
		}
	}

	sc, err := l.OpenSegmentScanner(ptrs[0].Seg, 0)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	defer sc.Close()
	for i, p := range ptrs {
		v, ok, err := sc.ValueAt(p)
		if !ok || err != nil {
			t.Fatalf("ValueAt record %d: ok %v, err %v", i, ok, err)
		}
		same("ValueAt", i, v)
	}

	calls := 0
	order := []int{3, 0, 2, 1}
	req := make([]Ptr, len(order))
	for i, j := range order {
		req[i] = ptrs[j]
	}
	if err := l.ReadValues(req, func(i int, v []byte) {
		calls++
		same("ReadValues", order[i], v)
	}); err != nil {
		t.Fatalf("ReadValues: %v", err)
	}
	if calls != len(req) {
		t.Fatalf("ReadValues called fn %d times, want %d", calls, len(req))
	}
}
