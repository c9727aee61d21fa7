package wal

import (
	"fmt"
	"testing"

	"repro/internal/dfs"
)

// BenchmarkOpenActiveSegment reopens a log whose segment open for
// append holds 50 K records of 320 B: the restart path, where Open
// checks that segment's frames for a torn tail before recovery reads it.
func BenchmarkOpenActiveSegment(b *testing.B) {
	fs, err := dfs.New(b.TempDir(), dfs.Config{NumDataNodes: 3})
	if err != nil {
		b.Fatalf("dfs.New: %v", err)
	}
	opts := Options{SegmentSize: 64 << 20}
	l, err := Open(fs, "wal", opts)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	value := make([]byte, 320)
	batch := make([]*Record, 0, 1000)
	for i := 0; i < 50_000; i++ {
		batch = append(batch, &Record{Kind: KindWrite, Table: "usertable", Tablet: "usertable/0",
			Group: "cg", Key: fmt.Appendf(nil, "user%08d", i), TS: int64(i + 1), Value: value})
		if len(batch) == cap(batch) {
			if _, err := l.Append(batch...); err != nil {
				b.Fatalf("Append: %v", err)
			}
			batch = batch[:0]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(fs, "wal", opts); err != nil {
			b.Fatalf("Open: %v", err)
		}
	}
}
