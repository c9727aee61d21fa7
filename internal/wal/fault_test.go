package wal

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fault"
)

func newFaultLog(t *testing.T, seed int64) (*Log, *dfs.DFS, *fault.Registry, string) {
	t.Helper()
	dir := t.TempDir()
	reg := fault.New(seed)
	fs, err := dfs.New(dir, dfs.Config{NumDataNodes: 3, BlockSize: 4096, Faults: reg})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	l, err := Open(fs, "wal", Options{SegmentSize: 1 << 20, Faults: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, fs, reg, dir
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		r := &Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
			Key: []byte(fmt.Sprintf("k%04d", i)), TS: int64(i), Value: []byte("v")}
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func scanAll(l *Log) (keys []string, err error) {
	s := l.NewScanner(Position{})
	for s.Next() {
		keys = append(keys, string(s.View().Record().Key))
	}
	return keys, s.Err()
}

// A torn append that "crashes" the process leaves partial bytes on
// disk; reopening the log must truncate the torn frame and keep every
// acknowledged record — the classic torn-tail contract.
func TestWALTornTailCrashTruncatesOnReopen(t *testing.T) {
	l, fs, reg, _ := newFaultLog(t, 1)
	appendN(t, l, 0, 10)

	reg.Arm("wal.append", fault.Policy{Times: 1, Partial: 0.5, Crash: true})
	_, err := l.Append(&Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
		Key: []byte("torn"), TS: 99, Value: []byte("v")})
	if !fault.Crashed(err) {
		t.Fatalf("torn crash append err = %v, want crash", err)
	}
	path := l.SegmentPath(1)
	pre, _ := fs.Size(path)

	// "Crash": abandon l, reopen from disk.
	l2, err := Open(fs, "wal", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if post, _ := fs.Size(path); post >= pre {
		t.Fatalf("torn tail not truncated: size %d -> %d", pre, post)
	}
	keys, err := scanAll(l2)
	if err != nil {
		t.Fatalf("scan after reopen: %v", err)
	}
	if len(keys) != 10 || keys[0] != "k0000" || keys[9] != "k0009" {
		t.Fatalf("acknowledged records damaged: %v", keys)
	}

	// A second crash-free cycle: append into a fresh segment, reopen
	// again — the once-torn segment is now sealed and must stay clean.
	l2.SetNextLSN(1000)
	appendN(t, l2, 100, 3)
	l3, err := Open(fs, "wal", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	keys, err = scanAll(l3)
	if err != nil {
		t.Fatalf("scan after second reopen: %v", err)
	}
	if len(keys) != 13 {
		t.Fatalf("got %d records after second cycle, want 13 (%v)", len(keys), keys)
	}
}

// A torn append on a live (non-crashing) process is repaired in place:
// the error surfaces to the writer, the segment is truncated back to
// the last durable boundary, and the log keeps serving appends with no
// garbage between records.
func TestWALTornAppendRepairedInPlace(t *testing.T) {
	l, _, reg, _ := newFaultLog(t, 1)
	appendN(t, l, 0, 5)

	reg.Arm("wal.append", fault.Policy{Times: 1, Partial: 0.3})
	_, err := l.Append(&Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
		Key: []byte("torn"), TS: 99, Value: []byte("v")})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn append err = %v, want injected", err)
	}
	appendN(t, l, 5, 5)
	keys, serr := scanAll(l)
	if serr != nil {
		t.Fatalf("scan after in-place repair: %v", serr)
	}
	want := []string{"k0000", "k0001", "k0002", "k0003", "k0004", "k0005", "k0006", "k0007", "k0008", "k0009"}
	if len(keys) != len(want) {
		t.Fatalf("keys after repair = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}

// An fsync-lost suffix (whole batch dropped, nothing on disk) must
// likewise leave the log serving cleanly.
func TestWALLostSuffixAppend(t *testing.T) {
	l, _, reg, _ := newFaultLog(t, 1)
	appendN(t, l, 0, 3)
	reg.Arm("wal.append", fault.Policy{Times: 1, Err: errors.New("fsync lost")})
	if _, err := l.Append(&Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
		Key: []byte("lost"), TS: 9, Value: []byte("v")}); err == nil {
		t.Fatal("lost-suffix append succeeded")
	}
	appendN(t, l, 3, 3)
	keys, err := scanAll(l)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(keys) != 6 {
		t.Fatalf("got %d records, want 6: %v", len(keys), keys)
	}
}

// Interior corruption — a flipped bit inside a durable record — must
// fail the scan loudly with the exact segment and offset, not silently
// truncate the suffix. This is the mid-file half of the torn-vs-corrupt
// distinction.
func TestWALInteriorCorruptionFailsLoudly(t *testing.T) {
	l, fs, _, _ := newFaultLog(t, 1)
	appendN(t, l, 0, 20)

	// Flip one payload byte of an early record on every replica.
	path := l.SegmentPath(1)
	blocks, err := fs.Blocks(path)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	const corruptOff = segHeaderSize + 40 // inside the first record's payload
	for _, nid := range blocks[0].Replicas {
		if err := fs.CorruptBlockReplica(path, 0, nid, corruptOff); err != nil {
			t.Fatalf("CorruptBlockReplica dn%d: %v", nid, err)
		}
	}

	_, serr := scanAll(l)
	if serr == nil {
		t.Fatal("scan over interior corruption reported no error")
	}
	var ce *CorruptionError
	if !errors.As(serr, &ce) {
		t.Fatalf("scan err = %v (%T), want *CorruptionError", serr, serr)
	}
	if !errors.Is(serr, ErrCorrupt) {
		t.Fatalf("scan err = %v, want ErrCorrupt underneath", serr)
	}
	if ce.Segment != 1 {
		t.Fatalf("CorruptionError.Segment = %d, want 1", ce.Segment)
	}
	if ce.Off < segHeaderSize || ce.Off > corruptOff {
		t.Fatalf("CorruptionError.Off = %d, want in [%d,%d]", ce.Off, segHeaderSize, corruptOff)
	}

	// Reopening must also refuse: the damage is in the last segment,
	// before the tail, so open-time tail repair cannot explain it away.
	if _, err := Open(fs, "wal", Options{}); err == nil {
		t.Fatal("Open over interior corruption succeeded")
	}
}

// A torn frame in a sealed segment is interior damage, not a clean end:
// a one-segment scanner (OpenSegmentScanner) must report it where a
// scanner over the whole log does, instead of ending the segment after
// the records before it.
func TestSegmentScannerTornFrameInSealedSegment(t *testing.T) {
	l, fs, _, _ := newFaultLog(t, 1)
	var offs []int64
	for i := 0; i < 20; i++ {
		ptrs, err := l.Append(&Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
			Key: []byte(fmt.Sprintf("k%04d", i)), TS: int64(i), Value: []byte("v")})
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		offs = append(offs, ptrs[0].Off)
	}
	l.Rotate()
	// Flip the high byte of frame 2's length: it now claims more bytes
	// than the segment holds.
	path := l.SegmentPath(1)
	blocks, err := fs.Blocks(path)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	at := offs[1] + 3
	for _, nid := range blocks[at/4096].Replicas {
		if err := fs.CorruptBlockReplica(path, int(at/4096), nid, at%4096); err != nil {
			t.Fatalf("CorruptBlockReplica dn%d: %v", nid, err)
		}
	}

	sc, err := l.OpenSegmentScanner(1, 0)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	defer sc.Close()
	n := 0
	for sc.Next() {
		n++
	}
	var ce *CorruptionError
	if !errors.As(sc.Err(), &ce) || !errors.Is(sc.Err(), ErrTorn) || ce.Segment != 1 || ce.Off != offs[1] {
		t.Fatalf("segment scan after %d records: err = %v, want a torn-frame CorruptionError at seg 1 @%d", n, sc.Err(), offs[1])
	}
	if _, serr := scanAll(l); !errors.As(serr, &ce) || ce.Off != offs[1] {
		t.Fatalf("log scan err = %v, want the same CorruptionError", serr)
	}
}

// A write-path bit flip (FlipBit on wal.append) is acknowledged but
// lands corrupt on all replicas — the scan must detect it by CRC.
func TestWALWriteBitFlipDetectedByScan(t *testing.T) {
	l, _, reg, _ := newFaultLog(t, 7)
	appendN(t, l, 0, 5)
	reg.Arm("wal.append", fault.Policy{Times: 1, FlipBit: true})
	appendN(t, l, 5, 1) // silently corrupted in flight
	reg.Disarm("wal.append")
	appendN(t, l, 6, 4)

	_, serr := scanAll(l)
	var ce *CorruptionError
	if !errors.As(serr, &ce) || !errors.Is(serr, ErrCorrupt) {
		t.Fatalf("scan err = %v, want CorruptionError/ErrCorrupt", serr)
	}
}

// Replica-targeted read faults: a bit flip on one datanode's read path
// corrupts that copy's returned bytes only; reads routed to the other
// replicas still see clean data.
func TestWALReadFaultSingleReplica(t *testing.T) {
	l, fs, reg, _ := newFaultLog(t, 3)
	appendN(t, l, 0, 10)
	path := l.SegmentPath(1)
	blocks, err := fs.Blocks(path)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	bad := blocks[0].Replicas[0]
	reg.Arm(fmt.Sprintf("dfs.dn%d.read", bad), fault.Policy{Err: errors.New("io error")})

	// The DFS falls back to the healthy replicas transparently.
	keys, serr := scanAll(l)
	if serr != nil {
		t.Fatalf("scan with one failing replica: %v", serr)
	}
	if len(keys) != 10 {
		t.Fatalf("got %d records, want 10", len(keys))
	}
	if reg.Injected() == 0 {
		t.Fatal("replica read fault never fired")
	}
}

// Compaction lays its sorted output above the segment open for append,
// so after a crash the torn segment need not be the last one. Reopen
// must still find and truncate the torn frame: a sorted segment on top
// does not mean there is no active tail below it.
func TestWALTornTailBelowCompactionOutputRepairedOnReopen(t *testing.T) {
	l, fs, reg, _ := newFaultLog(t, 1)
	appendN(t, l, 0, 10)
	sw := l.NewSegmentWriter()
	if _, err := sw.Append(&Record{Kind: KindWrite, LSN: 1, Table: "t", Tablet: "t/0", Group: "cg",
		Key: []byte("sorted"), Value: []byte("v")}); err != nil {
		t.Fatalf("SegmentWriter.Append: %v", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("SegmentWriter.Close: %v", err)
	}
	if active, top := l.ActiveSegment(), sw.Segments()[0]; top <= active {
		t.Fatalf("compaction output seg %d not above active seg %d", top, active)
	}

	reg.Arm("wal.append", fault.Policy{Times: 1, Partial: 0.5, Crash: true})
	_, err := l.Append(&Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
		Key: []byte("torn"), TS: 99, Value: []byte("v")})
	if !fault.Crashed(err) {
		t.Fatalf("torn crash append err = %v, want crash", err)
	}
	path := l.SegmentPath(l.ActiveSegment())
	pre, _ := fs.Size(path)

	l2, err := Open(fs, "wal", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if post, _ := fs.Size(path); post >= pre {
		t.Fatalf("torn tail below compaction output not truncated: size %d -> %d", pre, post)
	}
	keys, err := scanAll(l2)
	if err != nil {
		t.Fatalf("scan after reopen: %v", err)
	}
	if len(keys) != 11 || keys[0] != "k0000" || keys[9] != "k0009" || keys[10] != "sorted" {
		t.Fatalf("records after reopen = %v, want k0000..k0009 then sorted", keys)
	}
}

// A crash that tears the header write of a fresh segment leaves a file
// shorter than the header, holding no records. Reopening must drop it
// (Peer: pass it over) and keep serving; a short file that is not a
// header prefix stays loud.
func TestTornSegmentHeaderDroppedOnOpen(t *testing.T) {
	l, fs, reg, _ := newFaultLog(t, 7)
	appendN(t, l, 0, 10)
	l.Rotate()
	for i := 0; i < 3; i++ {
		reg.Arm(fmt.Sprintf("dfs.dn%d.write", i), fault.Policy{Times: 1, Partial: 0.5, Crash: true})
	}
	if _, err := l.Append(&Record{Kind: KindWrite, Table: "t", Tablet: "t/0", Group: "cg",
		Key: []byte("torn"), TS: 99, Value: []byte("v")}); !fault.Crashed(err) {
		t.Fatalf("append into a segment with a torn header: err = %v, want crash", err)
	}
	reg.Reset()
	torn := l.SegmentPath(2)
	if size, err := fs.Size(torn); err != nil || size >= SegmentHeaderSize {
		t.Fatalf("torn segment: size %d, err %v; want a file shorter than the header", size, err)
	}
	// A header prefix that did reach the disk is torn all the same.
	w, err := fs.Create(l.SegmentPath(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(segMagic[:3]); err != nil {
		t.Fatal(err)
	}

	peer, err := Open(fs, "wal", Options{Peer: true})
	if err != nil {
		t.Fatalf("peer open over torn headers: %v", err)
	}
	if got := len(peer.Segments()); got != 1 || !fs.Exists(torn) {
		t.Fatalf("peer open: %d segments, torn file kept %v; want 1 and true", got, fs.Exists(torn))
	}
	for pass := 0; pass < 2; pass++ {
		l2, err := Open(fs, "wal", Options{SegmentSize: 1 << 20})
		if err != nil {
			t.Fatalf("reopen %d after torn segment header: %v", pass, err)
		}
		if pass == 0 && (fs.Exists(torn) || fs.Exists(l.SegmentPath(3))) {
			t.Fatalf("reopen %d kept a torn-header segment", pass)
		}
		keys, err := scanAll(l2)
		if err != nil || len(keys) != 10+pass {
			t.Fatalf("reopen %d: %d records (%v), want %d", pass, len(keys), err, 10+pass)
		}
		l2.SetNextLSN(100)
		appendN(t, l2, 10+pass, 1)
	}

	// Anything else short of a header is damage.
	w, err = fs.Create(l.SegmentPath(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("LBX")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "wal", Options{}); err == nil {
		t.Fatal("open over a short non-header segment succeeded; want bad segment magic")
	}
}
