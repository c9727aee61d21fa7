package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/wal"
)

// Compaction writes its sorted output through wal.SegmentWriter, which
// buffers frames and hands them to the DFS one chunk at a time. These
// tests count those writes, fail them, tear them, and time them.

// outputChunk is the segment writer's chunk size.
const outputChunk = 1 << 20

// newOutputEnv is a crash harness whose DFS consults the fault registry,
// with blocks and segments large enough that one output chunk is one
// write per replica.
func newOutputEnv(t *testing.T, seed int64) *crashEnv {
	t.Helper()
	reg := fault.New(seed)
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 64 << 20, Faults: reg})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	e := &crashEnv{t: t, fs: fs, reg: reg, segSize: 64 << 20}
	e.srv = e.open()
	return e
}

// batchLoad writes keys rows of size-byte values, then overwrites every
// fourth key overwrites times over, in ApplyBatch sweeps of 1,000;
// o (when non-nil) records the acknowledged state.
func batchLoad(tb testing.TB, s *Server, o oracle, keys, overwrites, size int) {
	tb.Helper()
	var batch []BatchWrite
	flush := func() {
		if err := s.ApplyBatch(batch); err != nil {
			tb.Fatalf("ApplyBatch: %v", err)
		}
		batch = batch[:0]
	}
	for n := 0; n < keys+overwrites; n++ {
		i, ts := n%keys, int64(n+1)
		if n >= keys {
			i = (n - keys) * 4 % keys
		}
		v := fmt.Appendf(nil, "%d@%d:", i, ts)
		v = append(v, bytes.Repeat([]byte("v"), max(0, size-len(v)))...)
		batch = append(batch, BatchWrite{Tablet: testTablet, Group: testGroup, Key: k6(i), TS: ts, Value: v})
		if o != nil {
			o.put(string(k6(i)), ts, string(v))
		}
		if len(batch) == 1000 {
			flush()
		}
	}
	if len(batch) > 0 {
		flush()
	}
}

// armReplicaWrites arms every datanode's write point with p.
func armReplicaWrites(reg *fault.Registry, p fault.Policy) {
	for i := 0; i < 3; i++ {
		reg.Arm(fmt.Sprintf("dfs.dn%d.write", i), p)
	}
}

// TestCompactionOutputWritesInChunks: a compaction writes its output in
// a few large DFS appends — a header and a last chunk with the footer
// per segment, and one append per full chunk — not one per record.
func TestCompactionOutputWritesInChunks(t *testing.T) {
	e := newOutputEnv(t, 1)
	o := oracle{}
	batchLoad(t, e.srv, o, 2500, 0, 1024)
	e.srv.Log().Rotate()
	var nums []uint32
	for _, si := range e.srv.Log().Segments() {
		nums = append(nums, si.Num)
	}
	fires := 0
	e.reg.Arm("dfs.dn0.write", fault.Policy{OnFire: func() { fires++ }})
	st, err := e.srv.CompactSegments(nums)
	e.reg.Reset()
	if err != nil {
		t.Fatalf("CompactSegments: %v", err)
	}
	if st.RecordsKept < 2000 {
		t.Fatalf("compaction kept %d records, want >= 2000", st.RecordsKept)
	}
	var out int64
	for _, si := range e.srv.Log().Segments() {
		if si.Sorted {
			out += si.Size
		}
	}
	if bound := st.SegmentsOut*2 + int((out+outputChunk-1)/outputChunk); fires > bound {
		t.Fatalf("%d records in %d B over %d segments took %d replica writes on dn0, want <= %d",
			st.RecordsKept, out, st.SegmentsOut, fires, bound)
	}
	verifyOracle(t, e.srv, o, nil)
}

// TestCompactOutputWriteErrorKeepsReads: an output chunk that no replica
// accepts fails the compaction before it installs anything. Every input
// stays and every read is unchanged; the next compaction and a restart
// serve the same rows.
func TestCompactOutputWriteErrorKeepsReads(t *testing.T) {
	e := newOutputEnv(t, 2)
	o := oracle{}
	batchLoad(t, e.srv, o, 2500, 500, 1024)
	var inputs []uint32
	for _, si := range e.srv.Log().Segments() {
		inputs = append(inputs, si.Num)
	}
	// The output's header, then its first chunk, then the second: fails.
	armReplicaWrites(e.reg, fault.Policy{After: 2, Times: 1})
	_, err := e.srv.Compact()
	e.reg.Reset()
	if err == nil {
		t.Fatal("Compact with a failing second output chunk succeeded")
	}
	var live []uint32
	for _, si := range e.srv.Log().Segments() {
		live = append(live, si.Num)
	}
	for _, n := range inputs {
		if !slices.Contains(live, n) {
			t.Fatalf("failed Compact removed input segment %d (live %v)", n, live)
		}
	}
	if !slices.ContainsFunc(e.srv.Log().Segments(), func(si wal.SegmentInfo) bool { return si.Sorted && si.Size > outputChunk }) {
		t.Fatal("no output segment holds the first chunk: the failure was not at the second")
	}
	verifyOracle(t, e.srv, o, nil)
	if _, err := e.srv.Compact(); err != nil {
		t.Fatalf("Compact after disarming: %v", err)
	}
	verifyOracle(t, e.srv, o, nil)
	verifyOracle(t, e.crashAndRecover(), o, nil)
}

// TestCrashTornCompactionOutputChunk: a crash that tears the second
// output chunk leaves a sorted segment without a footer beside the
// still-live inputs; recovery serves the acknowledged rows, and so does
// a later compaction and restart.
func TestCrashTornCompactionOutputChunk(t *testing.T) {
	e := newOutputEnv(t, 3)
	o := oracle{}
	batchLoad(t, e.srv, o, 2500, 500, 1024)
	armReplicaWrites(e.reg, fault.Policy{After: 2, Times: 1, Partial: 0.5, Crash: true})
	if _, err := e.srv.Compact(); !fault.Crashed(err) {
		t.Fatalf("Compact with a torn output chunk: err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	verifyOracle(t, s, o, nil)
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact after recovery: %v", err)
	}
	verifyOracle(t, e.crashAndRecover(), o, nil)
}

// TestCrashTornCompactionOutputHeader: a crash that tears the header of
// compaction's first output segment leaves a file shorter than a header.
// The restart drops it and serves the acknowledged rows — twice over.
func TestCrashTornCompactionOutputHeader(t *testing.T) {
	e := newOutputEnv(t, 4)
	o := oracle{}
	seedRows(t, e.srv, o, 20)
	for round := 0; round < 2; round++ {
		armReplicaWrites(e.reg, fault.Policy{Times: 1, Partial: 0.5, Crash: true})
		if _, err := e.srv.Compact(); !fault.Crashed(err) {
			t.Fatalf("round %d: Compact with a torn output header: err = %v, want crash", round, err)
		}
		s := e.crashAndRecover()
		verifyOracle(t, s, o, nil)
		k, v := fmt.Sprintf("r%d", round), fmt.Sprintf("after%d", round)
		if err := s.Write(testTablet, testGroup, []byte(k), int64(100+round), []byte(v)); err != nil {
			t.Fatalf("round %d: Write after recovery: %v", round, err)
		}
		o.put(k, int64(100+round), v)
	}
	verifyOracle(t, e.crashAndRecover(), o, nil)
}

// BenchmarkCompactWholeLog is a whole-log Compact of 60 K keys, 15 K of
// them overwritten, 256 B values, on three datanodes. The bytes are the
// log it reads; loading it is outside the timer.
func BenchmarkCompactWholeLog(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		fs, err := dfs.New(b.TempDir(), dfs.Config{NumDataNodes: 3})
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewServer(fs, "ts1", Config{})
		if err != nil {
			b.Fatal(err)
		}
		s.AddTablet(partition.Tablet{ID: testTablet, Table: "users"}, []string{testGroup})
		batchLoad(b, s, nil, 60000, 15000, 256)
		b.SetBytes(s.Log().Size())
		b.StartTimer()
		if _, err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
